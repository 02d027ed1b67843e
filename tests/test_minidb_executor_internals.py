"""Unit tests for the executor's joining/grouping helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import minidb_sort_oracle as oracle
from repro.errors import ExecutionError
from repro.minidb.executor import (
    _composite_codes,
    _group_codes,
    _group_runs,
    _join_index,
    _scan_frame,
)
from repro.minidb.expressions import Frame
from repro.minidb.storage import KeyIndex, Table, stable_order


def _equi_match(probe_codes, build_codes):
    """Pairs of equal codes through the one matcher, a ``KeyIndex``."""
    return KeyIndex.build([build_codes]).pairs([probe_codes])


class TestEquiMatch:
    def test_basic_pairs(self):
        probe = np.array([1, 2, 3, 2])
        build = np.array([2, 2, 4])
        probe_idx, build_idx = _equi_match(probe, build)
        # probe rows 1 and 3 (value 2) each match build rows 0 and 1
        pairs = sorted(zip(probe_idx.tolist(), build_idx.tolist()))
        assert pairs == [(1, 0), (1, 1), (3, 0), (3, 1)]

    def test_no_matches(self):
        probe_idx, build_idx = _equi_match(np.array([1, 2]), np.array([9]))
        assert len(probe_idx) == 0 and len(build_idx) == 0

    def test_duplicates_both_sides(self):
        probe = np.array([5, 5])
        build = np.array([5, 5, 5])
        probe_idx, _ = _equi_match(probe, build)
        assert len(probe_idx) == 6  # 2 x 3 cross product on the key

    def test_matches_agree_with_bruteforce(self, rng):
        probe = rng.integers(0, 20, 200)
        build = rng.integers(0, 20, 150)
        probe_idx, build_idx = _equi_match(probe, build)
        got = set(zip(probe_idx.tolist(), build_idx.tolist()))
        expected = {
            (i, j)
            for i in range(len(probe))
            for j in range(len(build))
            if probe[i] == build[j]
        }
        assert got == expected


class TestCompositeCodes:
    def test_equal_tuples_equal_codes(self):
        left = [np.array([1, 1, 2]), np.array(["a", "b", "a"])]
        right = [np.array([1, 2]), np.array(["b", "a"])]
        lc, rc = _composite_codes(left, right)
        assert lc[1] == rc[0]  # (1, 'b') == (1, 'b')
        assert lc[2] == rc[1]  # (2, 'a') == (2, 'a')
        assert lc[0] != rc[0]

    def test_mixed_types_ok(self):
        left = [np.array([1.5, 2.5])]
        right = [np.array([2.5])]
        lc, rc = _composite_codes(left, right)
        assert lc[1] == rc[0]

    def test_empty_side_of_another_dtype(self):
        # an aggregate over no rows hands the join a float64 ``zeros(0)``
        lc, rc = _composite_codes([np.array([7, 9, 7])], [np.zeros(0)])
        assert lc[0] == lc[2] != lc[1] and len(rc) == 0
        assert all(len(idx) == 0 for idx in _equi_match(lc, rc))

    def test_mismatched_key_lists_raise(self):
        with pytest.raises(ExecutionError):
            _composite_codes([np.array([1])], [])


class TestGroupCodes:
    def test_identical_rows_same_code(self):
        codes = _group_codes([np.array([1, 1, 2]), np.array(["x", "x", "x"])])
        assert codes[0] == codes[1]
        assert codes[0] != codes[2]

    def test_number_of_groups(self, rng):
        a = rng.integers(0, 3, 100)
        b = rng.integers(0, 4, 100)
        codes = _group_codes([a, b])
        expected = len({(x, y) for x, y in zip(a.tolist(), b.tolist())})
        assert len(np.unique(codes)) == expected


# ---------------------------------------------------------------------------
# dense-code kernels vs the sort-based key handling they replaced
# ---------------------------------------------------------------------------

# value pools per key family: small enough that both sides collide, and
# both sides of one column may take different dtypes of its family
_POOLS = {
    "dense": (np.arange(-3, 9), (np.int64, np.int32)),
    # span far beyond 4 * rows + 1024: the np.unique route
    "sparse": (
        np.array([-(10**15), -70_000, -7, 0, 3, 65_535, 65_536, 10**9, 2**40]),
        (np.int64,),
    ),
    "bool": (np.array([False, True]), (np.bool_, np.int64)),
    "date": (np.arange(8_760, 8_772), (np.int32,)),
    "float": (np.array([-1.5, 0.0, 0.25, 2.5, 1e300]), (np.float64,)),
    "str": (np.array(["", "a", "ab", "b", "zebra"]), (np.str_,)),
}


@st.composite
def _two_sided_keys(draw):
    """1-4 aligned key columns for a left and a right input."""
    n_left = draw(st.integers(0, 24))
    n_right = draw(st.integers(0, 24))
    left, right = [], []
    for family in draw(st.lists(st.sampled_from(sorted(_POOLS)), min_size=1, max_size=4)):
        pool, dtypes = _POOLS[family]
        for side, n in ((left, n_left), (right, n_right)):
            picks = draw(
                st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n)
            )
            dtype = draw(st.sampled_from(dtypes))
            side.append(pool[np.asarray(picks, dtype=np.intp)].astype(dtype))
    return left, right


class TestDenseKernelsMatchTheSortOracle:
    @settings(max_examples=300, deadline=None)
    @given(_two_sided_keys())
    def test_join_pairs_identical_in_order(self, keys):
        left, right = keys
        got = _equi_match(*_composite_codes(left, right))
        want = oracle.equi_match(*oracle.composite_codes(left, right))
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @settings(max_examples=200, deadline=None)
    @given(_two_sided_keys())
    def test_semi_join_membership_is_isin(self, keys):
        left, right = keys
        probe, build = _composite_codes(left, right)
        want = np.isin(*oracle.composite_codes(left, right))
        assert np.array_equal(KeyIndex.build([build]).runs([probe])[1] > 0, want)

    @settings(max_examples=200, deadline=None)
    @given(_two_sided_keys())
    def test_group_order_and_first_occurrences(self, keys):
        columns, _ = keys
        order, starts = _group_runs(_group_codes(columns))
        want = oracle.group_codes(columns)
        assert np.array_equal(order, np.argsort(want, kind="stable"))
        assert np.array_equal(
            order[starts], np.unique(want, return_index=True)[1]
        )

    @pytest.mark.parametrize("top", [65_535, 65_536, 70_000])
    def test_join_across_the_radix_boundary(self, rng, top):
        # enough rows that codes up to ``top`` still count as dense, so
        # the build order needs one 16-bit pass below 2**16 and two above
        left = [rng.integers(0, top + 1, 20_000)]
        right = [rng.integers(0, top + 1, 20_000)]
        left[0][:2] = right[0][:2] = (top, 0)
        left_codes, right_codes = _composite_codes(left, right)
        assert max(left_codes.max(), right_codes.max()) == top
        got = _equi_match(left_codes, right_codes)
        want = oracle.equi_match(*oracle.composite_codes(left, right))
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 40), min_size=0, max_size=60),
        st.sampled_from([0, 2**16 - 20, 2**32 - 20, 2**48 - 20]),
    )
    def test_stable_order_is_a_stable_argsort(self, small, offset):
        codes = np.asarray(small, dtype=np.int64) + offset
        size = int(codes.max(initial=0)) + 1
        assert np.array_equal(
            stable_order(codes, size), np.argsort(codes, kind="stable")
        )


class TestWideKeysDoNotWrap:
    """Six to eight columns of 3,000 distinct values each: the mixed-radix
    product passes 2**63, which the sort-based codes wrapped silently."""

    @staticmethod
    def _columns(rng, n_columns):
        base = [rng.permutation(3_000) for _ in range(n_columns)]
        again = rng.integers(0, 3_000, 600)  # repeated tuples
        return [np.concatenate([column, column[again]]) for column in base]

    @staticmethod
    def _assert_ranks_tuples(codes, columns):
        assert codes.min() >= 0
        # np.unique over rows sorts them lexicographically: its inverse
        # is each tuple's rank, and dense codes must rank identically
        tuple_rank = np.unique(
            np.stack(columns, axis=1), axis=0, return_inverse=True
        )[1].reshape(-1)
        assert np.array_equal(
            np.unique(codes, return_inverse=True)[1], tuple_rank
        )

    @pytest.mark.parametrize("n_columns", [6, 7, 8])
    def test_group_side(self, rng, n_columns):
        columns = self._columns(rng, n_columns)
        self._assert_ranks_tuples(_group_codes(columns), columns)

    @pytest.mark.parametrize("n_columns", [6, 7, 8])
    def test_join_side(self, rng, n_columns):
        columns = self._columns(rng, n_columns)
        left = [column[:2_000] for column in columns]
        right = [column[2_000:] for column in columns]
        left_codes, right_codes = _composite_codes(left, right)
        self._assert_ranks_tuples(
            np.concatenate([left_codes, right_codes]), columns
        )

    def test_identity_columns(self):
        # the issue's reproducer: minimum code was -9.2e18 before the fix
        assert _group_codes([np.arange(3_000)] * 6).min() >= 0


# ---------------------------------------------------------------------------
# the key index a join probes vs the sort-based oracle
# ---------------------------------------------------------------------------

_TEXT = np.array(["", "a", "ab", "b", "zebra"])
# key families: (probe pool, build pool, table dtype of the build column)
_KEY_FAMILIES = {
    "negative": (np.arange(-9, 4), np.arange(-9, 4), "int"),
    # spans past 4 * rows + 1024: the sorted-keys index, and past 2**62
    # once two are composed: the joint encoding
    "wide": (np.array([-70_000, -7, 0, 3, 65_535, 70_000]),) * 2 + ("int",),
    "sparse": (_POOLS["sparse"][0],) * 2 + ("int",),
    "outside": (np.array([-60, -41, 40, 77]), np.arange(0, 8), "int"),
    "bool": (np.array([False, True]),) * 2 + ("int",),
    "date": (np.arange(8_760, 8_772, dtype=np.int32),) * 2 + ("date",),
    "float": (np.array([-1.5, 0.0, 0.25, 2.5, 1e300]),) * 2 + ("float",),
    "int_float": (np.arange(0, 5), np.array([0.0, 1.0, 2.5, 3.0]), "float"),
    "float_int": (np.array([0.0, 1.0, 2.5, 3.0]), np.arange(0, 5), "int"),
    "str_shared": (_TEXT, _TEXT, "str"),
    "str_unshared": (_TEXT, _TEXT, "str"),
}


@st.composite
def _join_sides(draw):
    """A probe frame and a build table over 1-3 aligned key columns."""
    n_probe = draw(st.integers(0, 24))
    n_build = draw(st.integers(0, 24))
    families = sorted(_KEY_FAMILIES)
    if n_build == 0:  # shared codes need a dictionary to share
        families.remove("str_shared")
    chosen = draw(st.lists(st.sampled_from(families), min_size=1, max_size=3))
    probe = Frame(n_rows=n_probe)
    table = Table(name="t", dtypes={})

    def pick(pool, n):
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        return pool[np.asarray(picks, dtype=np.intp)]

    for i, family in enumerate(chosen):
        probe_pool, build_pool, dtype = _KEY_FAMILIES[family]
        table.columns[f"c{i}"] = pick(build_pool, n_build)
        table.dtypes[f"c{i}"] = dtype
        key = f"p.c{i}"
        if family == "str_shared":
            codes, dictionary = table.encoded(f"c{i}")
            probe.columns[key] = pick(codes, n_probe)
            probe.dicts[key] = dictionary
        elif family == "str_unshared":
            dictionary, codes = np.unique(pick(probe_pool, n_probe), return_inverse=True)
            probe.columns[key] = codes.astype(np.int32)
            probe.dicts[key] = dictionary
        else:
            probe.columns[key] = pick(probe_pool, n_probe)
        probe.dtypes[key] = dtype
    return probe, table, len(chosen)


class TestKeyIndexMatchesTheSortOracle:
    """``_join_index`` over a whole-table build (the table's own
    ``key_index``) and over the same rows as a live frame: pairs,
    membership and first matches equal the sort-based oracle's over the
    decoded values."""

    @settings(max_examples=400, deadline=None)
    @given(_join_sides())
    def test_pairs_membership_and_first_match(self, sides):
        probe, table, n_keys = sides
        columns = tuple(f"c{i}" for i in range(n_keys))
        build = _scan_frame(table, "b", columns)
        probe_keys = [f"p.{c}" for c in columns]
        build_keys = [f"b.{c}" for c in columns]
        want = oracle.equi_match(
            *oracle.composite_codes(
                [probe.decoded(k) for k in probe_keys], [build.decoded(k) for k in build_keys]
            )
        )
        first = np.full(probe.n_rows, -1)
        first[want[0][::-1]] = want[1][::-1]  # the lowest build row per probe row
        for scan in (None, (table, "b")):
            index, probe_columns = _join_index(probe, probe_keys, build, build_keys, scan)
            got = index.pairs(probe_columns)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            starts, counts = index.runs(probe_columns)
            assert np.array_equal(counts, np.bincount(want[0], minlength=probe.n_rows))
            found = counts > 0
            assert np.array_equal(index.order[starts[found]], first[found])

    def test_a_whole_table_build_probes_the_tables_own_index(self):
        table = Table(
            name="t",
            dtypes={"k": "int", "s": "str"},
            columns={"k": np.array([5, 3, 5, 9]), "s": np.array(["x", "y", "x", "z"])},
        )
        build = _scan_frame(table, "b", ("k", "s"))
        probe = Frame(
            columns={"p.k": np.array([5, 4, 9]), "p.s": np.array([0, 0, 2], dtype=np.int32)},
            dtypes={"p.k": "int", "p.s": "str"},
            n_rows=3,
            dicts={"p.s": build.dicts["b.s"]},
        )
        index, _ = _join_index(probe, ["p.k", "p.s"], build, ["b.k", "b.s"], (table, "b"))
        assert index is table.key_index(("k", "s"))
        # a text key without the table's dictionary cannot use it
        probe.dicts["p.s"] = np.array(["x", "y", "z"])
        index, _ = _join_index(probe, ["p.k", "p.s"], build, ["b.k", "b.s"], (table, "b"))
        assert index is not table.key_index(("k", "s"))

    def test_no_keys_raise(self):
        frame = Frame(n_rows=0)
        with pytest.raises(ExecutionError, match="mismatched join key lists"):
            _join_index(frame, [], frame, [])


class TestFrameMask:
    def test_a_mask_keeping_every_row_returns_the_frame(self):
        frame = Frame(columns={"a": np.arange(3)}, dtypes={"a": "int"}, n_rows=3)
        assert frame.mask(np.ones(3, dtype=bool)) is frame
        kept = frame.mask(np.array([True, False, True]))
        assert kept is not frame and kept.columns["a"].tolist() == [0, 2]
