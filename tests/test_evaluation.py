"""Pearson metrics, grouped evaluation, gain ranking, and stability tables."""

import csv
import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings, strategies as st

from cdrpipe import evaluation as ev
from cdrpipe.training import EpochRecord
from oracles import pearson_bruteforce, segment_pearson_per_group


class TestPearson:
    def test_perfect_positive(self):
        assert ev.pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_perfect_negative(self):
        assert ev.pearson([1, 2, 3], [6, 4, 2]) == -1.0

    def test_hand_checked_four_points(self):
        np.testing.assert_allclose(ev.pearson([1, 2, 3, 4], [1, 3, 2, 4]), 0.8, rtol=1e-12)

    def test_undefined_cases_signal_none(self):
        assert ev.pearson([1.0], [2.0]) is None
        assert ev.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
        assert ev.pearson([1.0, 2.0], [5.0, 5.0]) is None

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="equal-length"):
            ev.pearson([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry_and_affine_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        r = ev.pearson(x, y)
        assert abs(ev.pearson(y, x) - r) < 1e-12
        assert abs(ev.pearson(3.7 * x + 11.0, y) - r) < 1e-12
        assert abs(ev.pearson(-2.0 * x + 1.0, y) + r) < 1e-12

    @pytest.mark.parametrize("n", [2, 17, 1000, 10_000])
    def test_matches_bruteforce_oracle(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        y = 0.4 * x + rng.normal(size=n)
        assert abs(ev.pearson(x, y) - pearson_bruteforce(x, y)) < 1e-12


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# small integers keep the correlation itself well conditioned, so any
# difference comes from the scale of the values alone
PAIRS = st.lists(st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
                 min_size=2, max_size=40)


class TestPearsonProperties:
    @PROPERTY
    @given(value=FINITE, others=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40))
    def test_a_constant_vector_is_undefined(self, value, others):
        constant = [value] * len(others)
        assert ev.pearson(constant, others) is None
        assert ev.pearson(others, constant) is None

    @PROPERTY
    @given(pairs=PAIRS, exponent=st.floats(-250, 250), sign=st.sampled_from([-1.0, 1.0]))
    def test_scaling_one_vector_keeps_the_correlation_up_to_sign(self, pairs, exponent, sign):
        x, y = (np.array(v, dtype=np.float64) for v in zip(*pairs))
        assume(len(set(x)) > 1 and len(set(y)) > 1)
        a = sign * 10.0 ** exponent
        assert abs(ev.pearson(a * x, y) - sign * ev.pearson(x, y)) <= 1e-12

    def test_extreme_magnitudes(self):
        assert ev.pearson([1e200, -1e200, 0.0], [1.0, 2.0, 3.0]) == pytest.approx(-0.5, abs=1e-15)
        assert ev.pearson([1e-200, -1e-200, 0.0], [1.0, 2.0, 3.0]) == pytest.approx(-0.5, abs=1e-15)

    def test_a_constant_whose_mean_rounds_is_undefined(self):
        assert ev.pearson([0.1] * 3, [0.0, 1.0, 2.0]) is None

    @PROPERTY
    @given(pairs=st.lists(st.tuples(FINITE, FINITE), min_size=2, max_size=12),
           data=st.data())
    def test_exact_power_of_two_scaling_changes_no_bit(self, pairs, data):
        """Over the whole float64 exponent range: any power of two that
        scales every value of x exactly leaves the correlation bit for bit."""
        x, y = (np.array(v, dtype=np.float64) for v in zip(*pairs))
        exponents = np.frexp(x[x != 0])[1]
        if exponents.size:  # a k that keeps every value finite and normal, if one exists
            low, high = min(0, -1021 - exponents.min()), max(0, 1024 - exponents.max())
        else:
            low, high = -2000, 2000
        k = data.draw(st.integers(low, high), label="k")
        scaled = np.ldexp(x, k)
        assume(np.isfinite(scaled).all() and np.array_equal(np.ldexp(scaled, -k), x))
        assert ev.pearson(scaled, y) == ev.pearson(x, y)

    def test_a_mean_that_would_overflow(self):
        got = ev.pearson([1.7e308, 1.7e308, 1e308], [1.0, 2.0, 3.0])
        assert got == pytest.approx(ev.pearson([1.7, 1.7, 1.0], [1.0, 2.0, 3.0]), abs=1e-15)
        assert got == pytest.approx(-np.sqrt(0.75), abs=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["pred", "obs"])
    def test_a_non_finite_value_is_undefined(self, bad, side):
        clean, dirty = [1.0, 2.0, 4.0, 3.0], [1.0, bad, 4.0, 3.0]
        pair = (dirty, clean) if side == "pred" else (clean, dirty)
        assert ev.pearson(*pair) is None


def rows_from(drugs, cells, preds, obs, types=None):
    types = types or [None] * len(drugs)
    return [ev.PredictionRow(d, c, p, o, t)
            for d, c, p, o, t in zip(drugs, cells, preds, obs, types)]


class TestGroupedPcc:
    def test_single_group_equals_overall(self):
        rng = np.random.default_rng(0)
        preds, obs = rng.normal(size=8), rng.normal(size=8)
        rows = rows_from(["D0"] * 8, [f"C{i}" for i in range(8)], preds, obs)
        got = ev.grouped_pcc(rows, "drug")
        assert set(got) == {"D0"}
        assert got["D0"].pcc == ev.pearson(preds, obs)
        assert got["D0"].n == 8

    def test_singleton_group_flagged_undefined(self):
        rows = rows_from(["D0", "D1", "D1"], ["C0", "C1", "C2"],
                         [1.0, 2.0, 3.0], [1.0, 5.0, 4.0])
        got = ev.grouped_pcc(rows, "drug")
        assert got["D0"].pcc is None and got["D0"].n == 1
        assert got["D1"].pcc is not None

    def test_merged_disjoint_groups_equal_overall(self):
        """Brute-force check: regrouping under one key reproduces overall."""
        rng = np.random.default_rng(3)
        preds, obs = rng.normal(size=10), rng.normal(size=10)
        drugs = [f"D{i % 3}" for i in range(10)]
        rows = rows_from(drugs, [f"C{i}" for i in range(10)], preds, obs)
        merged = rows_from(["ALL"] * 10, [f"C{i}" for i in range(10)], preds, obs)
        overall = ev.pearson(preds, obs)
        assert ev.grouped_pcc(merged, "drug")["ALL"].pcc == overall
        assert set(ev.grouped_pcc(rows, "drug")) == {"D0", "D1", "D2"}

    def test_rows_without_cancer_type_are_skipped(self):
        rows = rows_from(["D0"] * 4, [f"C{i}" for i in range(4)],
                         [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0],
                         ["lung", None, "lung", None])
        got = ev.grouped_pcc(rows, "cancer_type")
        assert set(got) == {"lung"}
        assert got["lung"].n == 2

    def test_build_eval_report_counts_undefined(self):
        rows = rows_from(["D0", "D1", "D1"], ["C0", "C1", "C2"],
                         [1.0, 2.0, 3.0], [1.0, 5.0, 4.0])
        report = ev.build_eval_report(rows)
        entries = ev.summary_entries(report)
        assert entries["groups.drug.total"] == 2
        assert entries["groups.drug.undefined"] == 1
        assert entries["groups.cell_line.undefined"] == 3
        assert not hasattr(report.grouped["drug"]["D0"], "__dict__")  # slotted: one per group


# predictions and observations are multiples of 0.1 from a handful of values, so
# small groups are often all-equal; the cancer type is often absent
PREDICTION_ROWS = st.lists(
    st.builds(lambda d, c, p, o, t: ev.PredictionRow(f"D{d}", f"C{c}", p / 10, o / 10, t),
              st.integers(0, 5), st.integers(0, 8), st.integers(-4, 4), st.integers(-30, 30),
              st.sampled_from([None, "lung", "skin", "blood"])),
    max_size=60)


class TestGroupedPccProperties:
    @PROPERTY
    @given(rows=PREDICTION_ROWS)
    def test_each_group_is_scored_as_pearson_scores_its_own_pairs(self, rows):
        report = ev.build_eval_report(rows)
        assert report.overall_pcc == ev.pearson([r.predicted for r in rows],
                                                [r.observed for r in rows])
        for kind, attr in (("cell_line", "cell_line_id"), ("cancer_type", "cancer_type"),
                           ("drug", "drug_id")):
            buckets: dict[str, list[ev.PredictionRow]] = {}
            for row in rows:
                if getattr(row, attr) is not None:
                    buckets.setdefault(getattr(row, attr), []).append(row)
            got = ev.grouped_pcc(rows, kind)
            assert report.grouped[kind] == got
            assert list(got) == list(buckets)
            for key, members in buckets.items():
                pred = [r.predicted for r in members]
                obs = [r.observed for r in members]
                assert got[key].n == len(members)
                assert got[key].pcc == ev.pearson(pred, obs)
                if len(set(pred)) > 1 and len(set(obs)) > 1:
                    assert abs(got[key].pcc - scipy.stats.pearsonr(pred, obs).statistic) <= 1e-12
                else:
                    assert got[key].pcc is None

    @PROPERTY
    @given(n_groups=st.sampled_from([1, 2, 255, 256, 257, 65_536, 65_537, 2**20]),
           data=st.data())
    def test_the_narrow_key_sort_scores_each_group_in_input_order(self, n_groups, data):
        """The codes are sorted as the smallest unsigned type that holds
        ``n_groups - 1`` (8, 16 or 32 bits here); the groups' PCCs are
        the bytes of the same arithmetic run one group at a time on its
        rows in input order, the order a stable ``np.intp`` sort gives. A
        few distinct codes per draw keep the groups populated, and
        seeded normal values make a group's sums depend on its row order."""
        present = data.draw(st.lists(st.integers(0, n_groups - 1), min_size=1, max_size=6))
        codes = np.array(data.draw(st.lists(st.sampled_from(present), min_size=0,
                                            max_size=60)), dtype=np.intp)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x, y = rng.normal(size=(2, codes.size)) * 10.0 ** rng.integers(-3, 4, size=(2, 1))
        got = ev.segment_pearson(x, y, codes, n_groups)
        assert got.tobytes() == segment_pearson_per_group(x, y, codes, n_groups).tobytes()

    def test_an_unknown_grouping_is_an_error_without_rows(self):
        with pytest.raises(ValueError, match="group_by must be one of"):
            ev.grouped_pcc([], "bogus")
        with pytest.raises(ValueError, match="group_by must be one of"):
            ev.grouped_pcc(rows_from(["D0"], ["C0"], [1.0], [2.0]), "bogus")


class TestRankedGains:
    def test_identical_models_have_zero_gains(self):
        base = {"D0": 0.5, "D1": 0.7}
        rows = ev.ranked_gains({"model_a": base, "model_b": base}, base)
        assert all(r.gains == {"model_a": 0.0, "model_b": 0.0} for r in rows)

    def test_single_drug_improvement(self):
        rows = ev.ranked_gains({"model_a": {"D0": 0.7}, "model_b": {"D0": 0.6}},
                               {"D0": 0.5})
        assert len(rows) == 1
        assert rows[0].rank == 1
        np.testing.assert_allclose(rows[0].gains["model_a"], 0.2)

    def test_ranks_are_a_permutation(self):
        rng = np.random.default_rng(1)
        drugs = [f"D{i}" for i in range(15)]
        base = {d: float(rng.uniform(-1, 1)) for d in drugs}
        a = {d: float(rng.uniform(-1, 1)) for d in drugs}
        b = {d: float(rng.uniform(-1, 1)) for d in drugs}
        rows = ev.ranked_gains({"model_a": a, "model_b": b}, base)
        assert sorted(r.rank for r in rows) == list(range(1, 16))
        gains = [r.gains["model_a"] for r in rows]
        assert gains == sorted(gains)  # ascending by the first model's gain

    def test_mismatched_drug_sets(self):
        with pytest.raises(ev.ComparisonError, match="model_b"):
            ev.ranked_gains({"model_a": {"D0": 0.1}, "model_b": {"D1": 0.1}}, {"D0": 0.0})


def history(*pccs, start=1):
    return [EpochRecord(epoch=start + i, train_loss=1.0 / (i + 1), val_pcc=p)
            for i, p in enumerate(pccs)]


class TestStability:
    def test_constant_history_has_zero_fluctuation(self):
        report = ev.stability_report({"m": history(0.5, 0.5, 0.5, 0.5)})
        assert report.summary["m"].fluctuation == 0.0
        assert report.summary["m"].max_pcc == 0.5

    def test_increasing_history_final_equals_max(self):
        report = ev.stability_report({"m": history(0.1, 0.4, 0.8)})
        assert report.summary["m"].final_pcc == report.summary["m"].max_pcc == 0.8

    def test_unequal_lengths_pad_with_stopped_markers(self, tmp_path):
        report = ev.stability_report({
            "long": history(*np.linspace(0.1, 0.9, 20)),
            "short": history(*np.linspace(0.1, 0.9, 17)),
        })
        assert report.epochs == list(range(1, 21))
        assert report.table["short"][18] is None
        path = tmp_path / "stability.csv"
        ev.write_stability_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,val_pcc_long,val_pcc_short"
        assert lines[18].split(",")[2] == ev.STOPPED_MARKER
        assert ev.STOPPED_MARKER not in lines[17]

    def test_disjoint_epoch_ranges_cannot_merge(self):
        with pytest.raises(ev.ReportError, match="disjoint"):
            ev.stability_report({"a": history(0.1, 0.2), "b": history(0.3, start=10)})

    def test_needs_at_least_one_history(self):
        with pytest.raises(ev.ReportError, match="at least one"):
            ev.stability_report({})

    def test_single_history_table_equals_history(self):
        h = history(0.2, 0.3, 0.1)
        report = ev.stability_report({"only": h})
        assert [report.table["only"][e] for e in report.epochs] == [0.2, 0.3, 0.1]


class TestWriters:
    def test_history_round_trip(self, tmp_path):
        h = history(0.25, None, 0.5)
        path = tmp_path / "history.csv"
        ev.write_history_csv(path, "scgpt", h)
        back = ev.read_history_csv(path)
        assert list(back) == ["scgpt"]
        assert [r.val_pcc for r in back["scgpt"]] == [0.25, None, 0.5]
        assert [r.epoch for r in back["scgpt"]] == [1, 2, 3]

    @pytest.mark.parametrize("row, message", [
        ("2,m,0.6", "line 4: malformed history row"),
        ("2,m,0.6," + "1" * (csv.field_size_limit() + 1), "line 4: unreadable CSV row"),
        ('1,"m\nx",0.6,1.0', "line 4: epoch 1 of model 'm\\nx' repeats line 2"),
    ], ids=["field_count", "over_limit", "repeat"])
    def test_a_history_row_is_named_by_the_line_it_starts_on(self, tmp_path, row, message):
        """Line 2's model name holds a newline, so the next record starts on line 4."""
        path = tmp_path / "history.csv"
        path.write_text(f'epoch,model,val_pcc,train_loss\n1,"m\nx",0.5,1.0\n{row}\n',
                        encoding="utf-8")
        with pytest.raises(ev.ReportError, match=re.escape(f"{path}, {message}")):
            ev.read_history_csv(path)

    def test_outputs_are_byte_deterministic(self, tmp_path):
        rows = rows_from(["D0", "D1"], ["C0", "C1"], [0.1, 0.2], [0.3, 0.4], ["t", None])
        for name in ("a.csv", "b.csv"):
            ev.write_predictions_csv(tmp_path / name, rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("existing", [True, False], ids=["replaces", "creates"])
    def test_a_writer_that_fails_mid_file_leaves_the_old_file(self, tmp_path, existing):
        """The header and two rows are written before the third row fails."""
        path = tmp_path / "predictions.csv"
        rows = rows_from(["D0", "D1"], ["C0", "C1"], [0.1, 0.2], [0.3, 0.4])
        if existing:
            ev.write_predictions_csv(path, rows_from(["D9"], ["C9"], [0.9], [0.8]))
        before = path.read_bytes() if existing else None
        bad = rows + [ev.PredictionRow("D2", "C2", "not a number", 0.5)]
        with pytest.raises(ValueError, match="not a number"):
            ev.write_predictions_csv(path, bad)
        assert (path.read_bytes() if path.exists() else None) == before
        assert [p.name for p in tmp_path.iterdir()] == (["predictions.csv"] if existing else [])

    def test_grouped_csv_excludes_undefined(self, tmp_path):
        stats = {"good": ev.GroupStat(0.5, 3), "lonely": ev.GroupStat(None, 1)}
        path = tmp_path / "g.csv"
        ev.write_grouped_csv(path, stats)
        text = path.read_text()
        assert "good" in text and "lonely" not in text

    def test_an_id_holding_a_comma_or_quote_round_trips(self, tmp_path):
        """Every table parses back to its header's width and to the values
        written; a history table also reads back through read_history_csv."""
        odd = 'D,0 "x"'
        rows = rows_from([odd, "D1"], ["C,0", 'C"1'], [0.1, 0.2], [0.3, 0.4], ['t,"a', None])
        ev.write_predictions_csv(tmp_path / "p.csv", rows)
        ev.write_grouped_csv(tmp_path / "g.csv",
                             {odd: ev.GroupStat(0.5, 3), "D1": ev.GroupStat(0.1, 2)})
        gains = ev.ranked_gains({"scgpt": {odd: 0.7, "D1": 0.2}}, {odd: 0.5, "D1": 0.4})
        ev.write_lodo_gains_csv(tmp_path / "l.csv", ["scgpt"], gains)
        ev.write_history_csv(tmp_path / "h.csv", odd, history(0.25, None))
        assert ev.read_history_csv(tmp_path / "h.csv") == {odd: history(0.25, None)}
        report = ev.stability_report({odd: history(0.5, 0.6), "m": history(0.7)})
        ev.write_stability_csv(tmp_path / "s.csv", report)
        tables = {}
        for name in ("p.csv", "g.csv", "l.csv", "h.csv", "s.csv"):
            with open(tmp_path / name, newline="", encoding="utf-8") as fh:
                tables[name] = list(csv.reader(fh))
            header, *body = tables[name]
            assert body and all(len(row) == len(header) for row in body), name
        assert [r[:2] for r in tables["p.csv"][1:]] == [[odd, "C,0"], ["D1", 'C"1']]
        assert [r[4] for r in tables["p.csv"][1:]] == ['t,"a', ""]
        assert sorted(r[0] for r in tables["g.csv"][1:]) == sorted([odd, "D1"])
        assert sorted(r[0] for r in tables["l.csv"][1:]) == sorted([odd, "D1"])
        assert [r[1] for r in tables["h.csv"][1:]] == [odd, odd]
        assert tables["s.csv"] == [["epoch", f"val_pcc_{odd}", "val_pcc_m"],
                                   ["1", "0.5", "0.7"], ["2", "0.6", ev.STOPPED_MARKER]]

    def test_lodo_gains_header_tracks_model_names(self, tmp_path):
        rows = ev.ranked_gains({"scgpt": {"D0": 0.7}, "scfoundation": {"D0": 0.6}},
                               {"D0": 0.5})
        path = tmp_path / "gains.csv"
        ev.write_lodo_gains_csv(path, ["scgpt", "scfoundation"], rows)
        assert path.read_text().splitlines()[0] == "drug_id,rank,gain_scgpt,gain_scfoundation"
