"""The integrity layer: checksums, envelopes, injection, verified allreduce.

Unit tests for :mod:`repro.resilience.integrity` plus small SPMD runs
exercising the comm-layer hooks end to end.
"""

import sys
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import telemetry
from repro.mpi import run_spmd
from repro.resilience.faults import FaultKind, FaultPlan
from repro.resilience.integrity import (
    CorruptionInjector,
    Envelope,
    GradientCorruptionError,
    IntegrityConfig,
    IntegrityContext,
    RETRANSMIT_PENALTY_S,
    checksum_payload,
    corruption_totals,
    flip_high_bits,
    linear_checksum,
    publish_undetected,
    verified_grad_allreduce,
    wordsum,
)
from repro.storage.checkpoint import shard_digests


class TestChecksums:
    def test_array_checksum_sees_dtype_and_shape(self):
        a = np.arange(6, dtype=np.float64)
        assert checksum_payload(a) == checksum_payload(a.copy())
        assert checksum_payload(a) != checksum_payload(a.reshape(2, 3))
        assert checksum_payload(a) != checksum_payload(a.astype(np.float32))

    def test_object_checksum_stable(self):
        assert checksum_payload({"k": 1}) == checksum_payload({"k": 1})
        assert checksum_payload({"k": 1}) != checksum_payload({"k": 2})

    def test_single_bitflip_changes_checksum(self):
        a = np.linspace(-1.0, 1.0, 32)
        assert checksum_payload(flip_high_bits(a, 7)) != checksum_payload(a)

    #: name -> (envelope CRC, checkpoint shard digest under that name), as
    #: computed before the two word-sum copies became one function.
    PINNED = {
        "f64": (13790343746759020258, 13790343745265034494),
        "f32_whole_words": (18179101659732727532, 18179101656910647374),
        "u8_odd_tail": (506097526267791132, 506097527788964781),
        "i16_below_one_word": (1856920954, 2165094090),
        "f64_transposed": (4688247212878311243, 4688247212867285372),
        "f32_strided_odd_tail": (952189691295675798, 952189689722005811),
        "f32_fortran_odd_tail": (185290974836779522, 185290975419642423),
        "empty": (1727026400, 1211821489),
    }

    @staticmethod
    def _arrays():
        base = (np.arange(130, dtype=np.float64) - 40.0) / 7.0
        return {
            "f64": base[:64].copy(),
            "f32_whole_words": base[:64].astype(np.float32),
            "u8_odd_tail": np.arange(13, dtype=np.uint8),
            "i16_below_one_word": np.arange(3, dtype=np.int16),
            "f64_transposed": base[:35].reshape(5, 7).T,
            "f32_strided_odd_tail": base.astype(np.float32)[::2],
            "f32_fortran_odd_tail": np.asfortranarray(
                base[:9].astype(np.float32).reshape(3, 3)),
            "empty": np.zeros(0),
        }

    def test_both_entry_points_keep_their_values(self):
        """Envelope CRCs and stored checkpoint digests share one word-sum;
        contiguous, non-contiguous and odd-tail buffers all keep the
        values they had when each caller carried its own copy."""
        got = {name: (checksum_payload(arr),
                      shard_digests({name: arr})[0][1])
               for name, arr in self._arrays().items()}
        assert got == self.PINNED
        assert wordsum(bytes(range(21))) == 1590916429253491868

    @pytest.mark.parametrize("name", ["f32_strided_odd_tail",
                                      "f32_fortran_odd_tail"])
    def test_memory_layout_does_not_change_the_checksum(self, name):
        """The checksum is of the canonical (C-order) bytes: a contiguous
        copy of an odd-tail array must agree with its strided original —
        the tail past the last whole word is covered either way."""
        arr = self._arrays()[name]
        packed = np.ascontiguousarray(arr)
        assert not arr.flags.c_contiguous and packed.nbytes % 8
        assert (checksum_payload(packed),
                shard_digests({name: packed})[0][1]) == self.PINNED[name]

    @given(dtype=st.sampled_from(["<f8", "<f4", "<i2", "|u1", ">f8"]),
           shape=st.lists(st.integers(0, 5), max_size=3).map(tuple),
           layout=st.sampled_from(["C", "F", "strided"]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(dtype=">f8", shape=(), layout="C", seed=0)
    @example(dtype="<i2", shape=(3, 0), layout="F", seed=1)
    @example(dtype="|u1", shape=(5, 3), layout="strided", seed=2)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_checksum_is_the_word_sum_of_the_c_order_bytes(
            self, dtype, shape, layout, seed):
        """The definition, spelled out: native 64-bit words of the C-order
        bytes summed mod 2**64, seeded with the CRC32 of the dtype/shape
        header, and the bytes past the last whole word folded in by CRC32
        — whatever the byte order, rank or memory layout."""
        strided = layout == "strided" and shape != ()
        full = (2 * shape[0],) + shape[1:] if strided else shape
        raw = np.random.default_rng(seed).integers(
            0, 256, int(np.prod(full)) * np.dtype(dtype).itemsize, np.uint8)
        arr = raw.view(dtype).reshape(full)
        if strided:
            arr = arr[::2]
        elif layout == "F":
            arr = np.array(arr, order="F")
        assert arr.shape == shape
        data = np.ascontiguousarray(arr).tobytes()
        whole = len(data) // 8 * 8
        expect = zlib.crc32(f"{arr.dtype.str}:{arr.shape}".encode()) + sum(
            int.from_bytes(data[i:i + 8], sys.byteorder)
            for i in range(0, whole, 8))
        if len(data) % 8:
            expect += zlib.crc32(data[whole:])
        assert checksum_payload(arr) == expect % 2 ** 64

    def test_flip_in_the_tail_past_the_last_word_is_seen(self):
        a = np.arange(5, dtype=np.float32)       # 20 bytes: 2 words + 4
        b = a.copy()
        b[4] = 99.0
        assert checksum_payload(a) != checksum_payload(b)
        assert shard_digests({"w": a}) != shard_digests({"w": b})

    def test_zero_dim_state_entries_have_a_digest(self):
        (_, digest), = shard_digests({"step": np.float64(3.5)})
        assert digest == shard_digests({"step": np.array(3.5)})[0][1]

    def test_linear_checksum_tracks_corruption(self):
        a = np.linspace(-1.0, 1.0, 1024)
        assert linear_checksum(a) == linear_checksum(a.copy())
        flipped = flip_high_bits(a, 100)
        delta = abs(linear_checksum(flipped) - linear_checksum(a))
        assert not np.isfinite(delta) or delta > 1e100


class TestFlipHighBits:
    def test_corrupts_exactly_one_element_detectably(self):
        a = np.linspace(-1.0, 1.0, 16)
        out = flip_high_bits(a, 5)
        diff = np.flatnonzero(out != a)
        assert list(diff) == [5]
        assert not np.isfinite(out[5]) or abs(out[5]) > 1e100

    def test_never_returns_input_unchanged(self):
        huge = np.full(4, np.finfo(np.float64).max)
        out = flip_high_bits(huge, 2)
        assert out[2] != huge[2]

    def test_input_not_mutated(self):
        a = np.ones(8)
        flip_high_bits(a, 0)
        assert np.all(a == 1.0)


class TestCorruptionInjector:
    def test_message_stream_deterministic(self):
        plan = FaultPlan.silent_corruption(7, message_p=0.3)

        def stream():
            with telemetry.capture():
                inj = CorruptionInjector(plan)
                return [inj.maybe_corrupt_message(
                            np.arange(4, dtype=np.float64), 0, 1)[1]
                        for _ in range(200)]

        first, second = stream(), stream()
        assert first == second
        assert any(first)       # p=0.3 over 200 draws must fire
        assert not all(first)

    def test_non_numeric_payloads_untouched(self):
        plan = FaultPlan.silent_corruption(0, message_p=1.0)
        with telemetry.capture():
            inj = CorruptionInjector(plan)
            obj, hit = inj.maybe_corrupt_message({"tag": 1}, 0, 1)
            assert obj == {"tag": 1} and not hit
            arr, hit = inj.maybe_corrupt_message(np.arange(3.0), 0, 1)
            assert hit and np.any(arr != np.arange(3.0))

    def test_gradient_spec_consumed_once(self):
        plan = FaultPlan.silent_corruption(0, gradient={5: [1]})
        with telemetry.capture():
            inj = CorruptionInjector(plan)
            a = np.ones(8)
            _, hit1 = inj.corrupt_contribution(a, 5, 1)
            _, hit2 = inj.corrupt_contribution(a, 5, 1)   # replayed step
            _, miss = inj.corrupt_contribution(a, 5, 2)   # other rank
        assert hit1 and not hit2 and not miss

    def test_injection_counted(self):
        plan = FaultPlan.silent_corruption(0, gradient={1: [0]})
        with telemetry.capture() as (_, registry):
            inj = CorruptionInjector(plan)
            inj.corrupt_contribution(np.ones(4), 1, 0)
            injected, detected = corruption_totals(registry)
        assert (injected, detected) == (1.0, 0.0)


class TestEnvelopes:
    def test_config_is_required(self):
        # Every caller names its config; there is no implied default.
        plan = FaultPlan.silent_corruption(0, message_p=1.0)
        with pytest.raises(TypeError):
            IntegrityContext(CorruptionInjector(plan))
        with pytest.raises(TypeError):
            IntegrityContext(None, IntegrityConfig())

    def test_clean_roundtrip_no_penalty(self):
        ctx = IntegrityContext(config=IntegrityConfig())
        wire = ctx.outbound(np.arange(5.0), 0, 1)
        assert isinstance(wire, Envelope)
        with telemetry.capture():
            payload, penalty = ctx.inbound(wire)
        assert np.array_equal(payload, np.arange(5.0)) and penalty == 0.0

    def test_corruption_detected_and_repaired(self):
        plan = FaultPlan.silent_corruption(0, message_p=1.0)
        with telemetry.capture() as (_, registry):
            ctx = IntegrityContext(CorruptionInjector(plan),
                                   config=IntegrityConfig())
            wire = ctx.outbound(np.arange(8.0), 0, 1)
            assert isinstance(wire, Envelope) and wire.clean is not None
            payload, penalty = ctx.inbound(wire)
            injected, detected = corruption_totals(registry)
        assert np.array_equal(payload, np.arange(8.0))
        assert penalty == RETRANSMIT_PENALTY_S
        assert injected == detected == 1.0
        assert publish_undetected(registry) == 0.0

    def test_verify_off_lets_corruption_through(self):
        plan = FaultPlan.silent_corruption(0, message_p=1.0)
        with telemetry.capture() as (_, registry):
            ctx = IntegrityContext(CorruptionInjector(plan),
                                   config=IntegrityConfig(verify=False))
            wire = ctx.outbound(np.arange(8.0), 0, 1)
            assert not isinstance(wire, Envelope)
            assert np.any(wire != np.arange(8.0))
            assert publish_undetected(registry) == 1.0


class TestVerifiedAllreduce:
    def _spmd(self, fn, ws=4):
        with telemetry.capture() as (_, registry):
            out = run_spmd(fn, ws)
        return out, registry

    def test_clean_allreduce_matches_plain_sum(self):
        def fn(comm):
            local = np.full(16, float(comm.rank + 1))
            return verified_grad_allreduce(comm, local, None, 0,
                                           IntegrityConfig())

        out, _ = self._spmd(fn)
        expected = np.full(16, 10.0)
        for buf in out:
            np.testing.assert_allclose(buf, expected)

    def test_corrupted_contribution_raises_on_every_rank(self):
        plan = FaultPlan.silent_corruption(3, gradient={2: [1]})

        def fn(comm):
            inj = comm.bcast(
                CorruptionInjector(plan) if comm.rank == 0 else None)
            try:
                verified_grad_allreduce(comm, np.ones(32), inj, 2,
                                        IntegrityConfig())
            except GradientCorruptionError as exc:
                return exc.world_ranks
            return None

        out, registry = self._spmd(fn)
        assert out == [(1,)] * 4
        assert publish_undetected(registry) == 0.0

    def test_verify_off_returns_corrupted_sum(self):
        plan = FaultPlan.silent_corruption(3, gradient={2: [1]})

        def fn(comm):
            inj = comm.bcast(
                CorruptionInjector(plan) if comm.rank == 0 else None)
            return verified_grad_allreduce(comm, np.ones(32), inj, 2,
                                           IntegrityConfig(verify=False))

        out, registry = self._spmd(fn)
        assert any(not np.all(np.asarray(buf) == 4.0) for buf in out)
        assert publish_undetected(registry) > 0.0


class TestCommIntegration:
    def test_spmd_messages_survive_bitflips(self):
        """With verification on, a bitflip-riddled run equals a clean run."""
        def fn(comm):
            acc = np.zeros(8)
            for _ in range(5):
                acc = comm.allreduce(acc + comm.rank)
            return acc

        clean = run_spmd(fn, 4)
        plan = FaultPlan.silent_corruption(1, message_p=0.2)
        with telemetry.capture() as (_, registry):
            ctx = IntegrityContext(CorruptionInjector(plan),
                                   config=IntegrityConfig())
            noisy = run_spmd(fn, 4, integrity=ctx)
            injected, detected = corruption_totals(registry)
        assert injected > 0, "0.2 over dozens of messages must fire"
        assert detected == injected
        for a, b in zip(clean, noisy):
            np.testing.assert_array_equal(a, b)


class TestFaultPlanCorruption:
    def test_silent_corruption_accessors(self):
        plan = FaultPlan.silent_corruption(
            0, message_p=0.05, gradient={4: [2, 0]},
            checkpoint_rot=[(6, "nam")])
        assert plan.message_bitflip_probability == 0.05
        grads = plan.at_step(FaultKind.BITFLIP_GRADIENT, 4)
        assert [s.node for s in grads] == [0, 2]
        assert plan.at_step(FaultKind.BITFLIP_GRADIENT, 5) == ()
        rots = plan.at_step(FaultKind.CHECKPOINT_ROT, 6)
        assert len(rots) == 1 and rots[0].module == "nam"
        assert plan.has_corruption

    def test_parse_bitflip_clause(self):
        """``bitflip=`` is ``silent_corruption`` under the plan's seed: the
        same plan, so the same per-message probability and draws."""
        plan = FaultPlan.parse("seed=3,bitflip=0.01", targets={"cm": 8})
        built = FaultPlan.silent_corruption(3, message_p=0.01)
        assert plan == built
        assert plan.message_bitflip_probability == 0.01
        assert plan.has_corruption
        logs = []
        for p in (plan, built):
            injector = CorruptionInjector(p)
            with telemetry.capture():
                for _ in range(500):
                    injector.maybe_corrupt_message(np.ones(4), 0, 1)
            logs.append(injector.injected)
        assert logs[0] and logs[0] == logs[1]

    def test_merged_keeps_both(self):
        a = FaultPlan.silent_corruption(0, message_p=0.1)
        b = FaultPlan.silent_corruption(9, gradient={2: [1]})
        merged = a.merged(b)
        assert merged.seed == 0
        assert merged.message_bitflip_probability == 0.1
        assert [s.node for s in
                merged.at_step(FaultKind.BITFLIP_GRADIENT, 2)] == [1]
