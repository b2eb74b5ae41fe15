"""Differential suite: the closed-form tuner candidate space vs the per-object oracle.

:func:`repro.core.wave_grouping.candidate_matrix` builds the pruned design
space from bitmasks straight into a memoized, read-only ``PartitionMatrix``.
Its ``sizes``, ``counts`` and ``boundaries`` must equal the encoding of the
per-object enumeration in ``tests/reference/wave_grouping.py`` exactly, row
order included (``argmin`` ties pick the first row), on both sides of
``max_exhaustive_waves``.  Both tuners must return the reference tuners'
``TuningResult``, and the array-backed ``MappingTable`` must answer every
query like a table built one ``append`` at a time.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from reference.geometry import mapping_table
from reference.tuner import exhaustive_tune, predictive_tune
from reference.wave_grouping import enumerate_partitions
from repro.comm.primitives import CollectiveKind
from repro.comm.topology import rtx4090_pcie
from repro.core.config import OverlapProblem, OverlapSettings
from repro.core.executor import OverlapExecutor
from repro.core.tuner import ExhaustiveTuner, PredictiveTuner
from repro.core.wave_grouping import candidate_matrix, candidate_partitions_matrix, heuristic_partitions
from repro.gpu.device import RTX_4090
from repro.gpu.gemm import GemmShape, GemmTileConfig
from repro.tensor.mapping import MappingTable


@functools.cache
def _design_space(num_waves):
    return tuple(enumerate_partitions(num_waves))


def _oracle(num_waves, max_first, max_last, max_exhaustive):
    """``reference.wave_grouping.candidate_partitions``, sharing one enumeration per T."""
    if num_waves <= max_exhaustive:
        return [
            p
            for p in _design_space(num_waves)
            if p.first_group <= max_first and p.last_group <= max_last
        ]
    return heuristic_partitions(num_waves, max_first, max_last)


@st.composite
def spaces(draw, max_waves=16):
    """``(T, max_first, max_last, max_exhaustive)`` with both branches drawn."""
    waves = draw(st.integers(min_value=1, max_value=max_waves))
    max_first = draw(st.integers(min_value=1, max_value=waves + 1))
    max_last = draw(st.integers(min_value=1, max_value=waves + 1))
    exhaustive = waves + draw(st.sampled_from([-3, -1, 0, 2]))
    return waves, max_first, max_last, exhaustive


class TestCandidateMatrix:
    @hyp_settings(max_examples=150, deadline=None)
    @given(spaces())
    def test_matches_oracle_encoding(self, space):
        matrix = candidate_matrix(*space)
        oracle = candidate_partitions_matrix(_oracle(*space))
        for name in ("sizes", "counts", "boundaries"):
            got, want = getattr(matrix, name), getattr(oracle, name)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            assert got.dtype == np.min_scalar_type(space[0])

    def test_both_branches_and_single_wave(self):
        assert candidate_matrix(1, 1, 1, 0).partition(0).group_sizes == (1,)
        assert candidate_matrix(1, 1, 1, 14).partition(0).group_sizes == (1,)
        exhaustive = candidate_matrix(5, 2, 4, 5)
        assert exhaustive.num_candidates == len(_oracle(5, 2, 4, 5))
        heuristic = candidate_matrix(5, 2, 4, 4)
        assert heuristic.num_candidates == len(heuristic_partitions(5, 2, 4))

    def test_rejects_bad_wave_count_and_bounds(self):
        with pytest.raises(ValueError, match="num_waves must be positive"):
            candidate_matrix(0, 2, 4, 14)
        for first, last in ((0, 4), (2, 0), (-1, -1)):
            with pytest.raises(ValueError, match="group-size bounds must be >= 1"):
                candidate_matrix(8, first, last, 14)
        # The same messages as the settings that normally supply the bounds.
        with pytest.raises(ValueError, match="group-size bounds must be >= 1"):
            OverlapSettings(max_first_group=0)


class TestMemoization:
    def test_same_key_returns_same_object(self):
        matrix = candidate_matrix(9, 2, 4, 14)
        assert candidate_matrix(9, 2, 4, 14) is matrix
        assert candidate_matrix(9, max_first_group=2, max_last_group=4, max_exhaustive_waves=14) is matrix
        assert candidate_matrix(np.int64(9), 2, 4, 14) is matrix
        assert PredictiveTuner(OverlapSettings()).candidates(9) is matrix
        assert candidate_matrix(9, 2, 3, 14) is not matrix

    @pytest.mark.parametrize("waves", [6, 40])
    def test_cached_arrays_reject_in_place_writes(self, waves):
        matrix = candidate_matrix(waves, 2, 4, 14)
        snapshot = {name: getattr(matrix, name).copy() for name in ("sizes", "counts", "boundaries")}
        with pytest.raises(ValueError, match="read-only"):
            matrix.sizes[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            matrix.counts[:] = 1
        with pytest.raises(ValueError, match="read-only"):
            matrix.boundaries += 1
        with pytest.raises(AttributeError):
            matrix.sizes = np.zeros_like(matrix.sizes)
        again = candidate_matrix(waves, 2, 4, 14)
        for name, array in snapshot.items():
            np.testing.assert_array_equal(getattr(again, name), array)


def _problem(num_waves: int, sms: int, spare: int) -> OverlapProblem:
    """A one-tile-wide GEMM that runs exactly ``num_waves`` waves on ``sms`` SMs."""
    topology = rtx4090_pcie(4)
    tiles = (num_waves - 1) * sms + 1 + spare
    return OverlapProblem(
        shape=GemmShape(128 * tiles, 128, 256),
        device=RTX_4090.with_sm_count(sms + topology.comm_sm_count),
        topology=topology,
        collective=CollectiveKind.ALL_REDUCE,
        gemm_config=GemmTileConfig(tile_m=128, tile_n=128),
    )


@st.composite
def tuning_cases(draw):
    """A problem and settings; the reference tuners are per-candidate loops, so
    the exhaustive branch is drawn up to 10 waves and the heuristic up to 16."""
    waves = draw(st.integers(min_value=1, max_value=16))
    sms = draw(st.integers(min_value=1, max_value=4))
    spare = draw(st.integers(min_value=0, max_value=sms - 1))
    exhaustive = waves + (draw(st.sampled_from([-2, -1, 0, 1])) if waves <= 10 else -1)
    settings = OverlapSettings(
        max_first_group=draw(st.integers(min_value=1, max_value=waves + 1)),
        max_last_group=draw(st.integers(min_value=1, max_value=waves + 1)),
        max_exhaustive_waves=max(1, exhaustive),
        executor_jitter=draw(st.sampled_from([0.0, 0.02])),
        bandwidth_profile_noise=draw(st.sampled_from([0.0, 0.015])),
    )
    return _problem(waves, sms, spare), settings, waves


class TestTunersMatchReference:
    @hyp_settings(max_examples=40, deadline=None)
    @given(tuning_cases())
    def test_predictive_and_exhaustive(self, case):
        problem, settings, waves = case
        assert OverlapExecutor(problem, settings).num_waves() == waves
        assert PredictiveTuner(settings).tune(problem) == predictive_tune(problem, settings)
        assert ExhaustiveTuner(settings).tune(problem) == exhaustive_tune(problem, settings)

    @pytest.mark.parametrize("jitter", [0.0, 0.02])
    def test_paper_problem(self, paper_problem_4090, jitter):
        settings = OverlapSettings(executor_jitter=jitter)
        assert PredictiveTuner(settings).tune(paper_problem_4090) == predictive_tune(
            paper_problem_4090, settings
        )
        assert ExhaustiveTuner(settings).tune(paper_problem_4090) == exhaustive_tune(
            paper_problem_4090, settings
        )


@st.composite
def packing_orders(draw):
    """Distinct (possibly sparse) unit indices in a random order, and a start."""
    units = draw(st.lists(st.integers(min_value=0, max_value=60), unique=True, max_size=24))
    return draw(st.permutations(units)), draw(st.integers(min_value=-3, max_value=8))


def _outcome(call):
    """A query's result, or the type of the error it raised."""
    try:
        return call()
    except (KeyError, ValueError) as error:
        return type(error)


class TestMappingTable:
    @hyp_settings(max_examples=200, deadline=None)
    @given(packing_orders(), packing_orders())
    def test_array_backed_matches_append_built(self, packed, other_packed):
        order, start = packed
        oracle = mapping_table(order, start)

        def table():
            return MappingTable.from_order(np.array(order, dtype=np.int64), start)

        # Every query on a fresh table, so each one builds the dicts itself ...
        assert len(table()) == len(oracle)
        assert table().is_permutation() == oracle.is_permutation()
        assert table().size_bytes() == oracle.size_bytes()
        assert table().size_bytes(index_bytes=8) == oracle.size_bytes(index_bytes=8)
        permutation, expected = _outcome(table().as_permutation), _outcome(oracle.as_permutation)
        if isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(permutation, expected)
            assert permutation.dtype == expected.dtype
        else:
            assert permutation is expected
        # ... and the dict views, in the same insertion order.
        assert list(table().forward.items()) == list(oracle.forward.items())
        assert list(table().inverse().items()) == list(oracle.inverse().items())
        assert table() == oracle
        probe = table()
        for position in range(start - 2, start + len(order) + 2):
            assert _outcome(lambda p=position: probe.original_of(p)) == _outcome(
                lambda p=position: oracle.original_of(p)
            )
        for unit in range(-1, 62):
            assert (unit in probe) == (unit in oracle)
            assert _outcome(lambda u=unit: probe.position_of(u)) == _outcome(
                lambda u=unit: oracle.position_of(u)
            )
        # merge() and append() continue from the order the same way.
        other_order, offset = other_packed
        other = MappingTable.from_order(other_order)
        merged = _outcome(lambda: table().merge(other, offset))
        expected = _outcome(lambda: oracle.merge(mapping_table(other_order), offset))
        if isinstance(expected, MappingTable):
            assert list(merged.forward.items()) == list(expected.forward.items())
        else:
            assert merged is expected
        extended, expected = table(), mapping_table(order, start)
        assert _outcome(lambda: extended.append(61)) == _outcome(lambda: expected.append(61))
        assert extended == expected

    def test_duplicate_unit_rejected(self):
        with pytest.raises(ValueError, match="packing order lists a unit twice"):
            MappingTable.from_order([3, 1, 3])
        with pytest.raises(ValueError, match="packing order lists a unit twice"):
            MappingTable.from_order(np.array([[0, 1], [1, 2]]), start=4)

    def test_order_is_copied(self):
        order = np.array([2, 0, 1])
        table = MappingTable.from_order(order)
        order[0] = 7
        assert table.forward == {2: 0, 0: 1, 1: 2}
