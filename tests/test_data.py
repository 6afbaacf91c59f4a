"""Container validation and marginal statistics."""

import json
import warnings
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from looadapt import Dataset, DimensionError, DomainError, PosteriorDraws, RunConfig, ValidationError
from looadapt import data
from looadapt.data import load_dataset_csv, load_draws_csv, marginal_stats


def _draws(values):
    values = np.asarray(values, dtype=float)
    return PosteriorDraws(values=values, param_names=tuple(f"p{j}" for j in range(values.shape[1])))


class TestMarginalStats:
    def test_two_point_symmetric(self):
        stats = marginal_stats(_draws([[1.0], [3.0]]))
        assert stats.mean[0] == 2.0
        assert stats.sd[0] == 1.0  # population convention, divisor S
        np.testing.assert_allclose(stats.weighted_mean, stats.mean)
        np.testing.assert_allclose(stats.weighted_variance, stats.variance)

    def test_degenerate_weights_use_unweighted_center(self):
        stats = marginal_stats(_draws([[1.0], [3.0]]), weights=np.array([1.0, 0.0]))
        assert stats.weighted_mean[0] == 1.0
        # deviations are taken about the plain mean 2, so v_w = (1 - 2)^2 = 1
        assert stats.weighted_variance[0] == 1.0

    def test_against_one_pass_reference(self, rng):
        values = rng.standard_normal((1000, 1))
        stats = marginal_stats(_draws(values))
        # independent one-pass accumulation
        total = 0.0
        total_sq = 0.0
        for v in values[:, 0]:
            total += v
            total_sq += v * v
        ref_mean = total / 1000.0
        ref_sd = np.sqrt(total_sq / 1000.0 - ref_mean**2)
        assert abs(stats.mean[0] - ref_mean) < 1e-12
        assert abs(stats.sd[0] - ref_sd) < 1e-10
        assert abs(stats.mean[0]) < 0.1
        assert abs(stats.sd[0] - 1.0) < 0.1

    def test_uniform_weights_match_unweighted(self, rng):
        values = rng.normal(size=(37, 4))
        uniform = np.full(37, 1.0 / 37.0)
        stats = marginal_stats(_draws(values), weights=uniform)
        np.testing.assert_allclose(stats.weighted_mean, stats.mean, atol=1e-12)
        np.testing.assert_allclose(stats.weighted_variance, stats.variance, atol=1e-12)

    def test_permutation_invariance(self, rng):
        values = rng.normal(size=(25, 3))
        perm = rng.permutation(25)
        a = marginal_stats(_draws(values))
        b = marginal_stats(_draws(values[perm]))
        for name in ("mean", "sd", "weighted_mean", "variance", "weighted_variance"):
            np.testing.assert_allclose(getattr(a, name), getattr(b, name), atol=1e-12)

    def test_weight_validation(self):
        draws = _draws([[1.0], [2.0], [3.0]])
        with pytest.raises(DimensionError):
            marginal_stats(draws, weights=np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            marginal_stats(draws, weights=np.array([1.5, -0.5, 0.0]))
        with pytest.raises(DomainError):
            marginal_stats(draws, weights=np.array([0.5, 0.4, 0.2]))

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
    @settings(max_examples=100, deadline=None, derandomize=False)
    def test_weighted_variance_non_negative(self, column):
        values = np.array(column)[:, None]
        raw = np.abs(np.sin(values[:, 0])) + 1e-3
        weights = raw / raw.sum()
        stats = marginal_stats(_draws(values), weights=weights)
        assert stats.weighted_variance[0] >= 0.0

    def test_constant_column_has_zero_sd(self):
        stats = marginal_stats(_draws([[1.0, 5.0], [2.0, 5.0]]))
        assert stats.sd[1] == 0.0

    def test_weighted_against_dense_formula(self, rng):
        values = rng.normal(size=(300, 4)) * [1.0, 10.0, 1e-3, 0.1] + [0.0, 100.0, -3.0, 1e3]
        draws = _draws(values)
        w = rng.uniform(size=300)
        w /= w.sum()
        mean = values.mean(axis=0)
        plain = marginal_stats(draws)
        alone, reused = marginal_stats(draws, w), marginal_stats(draws, w, plain)
        for stats in (alone, reused):
            np.testing.assert_allclose(stats.weighted_mean, np.sum(w[:, None] * values, axis=0), rtol=1e-12)
            np.testing.assert_allclose(
                stats.weighted_variance, np.sum(w[:, None] * (values - mean) ** 2, axis=0), rtol=1e-12
            )
            for name in ("mean", "sd", "variance"):
                np.testing.assert_array_equal(getattr(stats, name), getattr(plain, name))
        # reusing the per-run centred draws changes no bit
        np.testing.assert_array_equal(reused.weighted_mean, alone.weighted_mean)
        np.testing.assert_array_equal(reused.weighted_variance, alone.weighted_variance)

    def test_centred_draws_are_shared_and_read_only(self, rng):
        values = rng.normal(size=(20, 3))
        draws = _draws(values)
        plain = marginal_stats(draws)
        np.testing.assert_array_equal(plain.centered, values - values.mean(axis=0))
        np.testing.assert_array_equal(plain.variance, np.mean(plain.centered**2, axis=0))
        w = rng.dirichlet(np.ones(20))
        weighted = marginal_stats(draws, w, plain)
        assert weighted.centered is plain.centered
        # one contraction of w with the centred draws twice, no stored square
        assert not hasattr(weighted, "centered_sq")
        np.testing.assert_allclose(weighted.weighted_variance, w @ plain.centered**2, rtol=1e-14, atol=0)
        with pytest.raises(ValueError):
            plain.centered[0, 0] = 1.0

    def test_plain_statistics_of_other_draws_rejected(self, rng):
        plain = marginal_stats(_draws(rng.normal(size=(5, 2))))
        with pytest.raises(DimensionError):
            marginal_stats(_draws(rng.normal(size=(5, 3))), np.full(5, 0.2), plain)


def _dataset_file(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestDatasetValidation:
    def test_minimal_well_formed(self, tmp_path):
        ds = load_dataset_csv(_dataset_file(tmp_path, "f,y\n1.0,0\n2.0,1\n"))
        assert ds.n == 2 and ds.p == 1
        np.testing.assert_allclose(ds.features[:, 0], [1.0, 2.0])
        np.testing.assert_array_equal(ds.labels, [0, 1])

    def test_bad_label_names_row(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            load_dataset_csv(_dataset_file(tmp_path, "f,y\n1.0,0\n2.0,1\n3.0,2\n"))
        assert any("row 3" in v and "label" in v for v in err.value.violations)

    def test_non_numeric_feature_names_cell(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            load_dataset_csv(_dataset_file(tmp_path, "gene,y\n1.0,0\nabc,1\n"))
        assert any("row 2" in v and "gene" in v for v in err.value.violations)

    def test_all_violations_collected(self, tmp_path):
        with pytest.raises(ValidationError) as err:
            load_dataset_csv(_dataset_file(tmp_path, "f,y\nx,0\n1.0,5\n2.0\n"))
        assert len(err.value.violations) == 3

    def test_label_domain_enforced_in_constructor(self):
        with pytest.raises(DomainError):
            Dataset(features=np.ones((2, 1)), labels=np.array([0, 2]), feature_names=("f",))
        # checked as given: cast first, 0.7 would become 0 and NaN a bare ValueError
        for labels in ([0.7, 1.0], [np.nan, 1.0]):
            with pytest.raises(DomainError, match="labels must all be 0 or 1"):
                Dataset(features=np.ones((2, 1)), labels=labels, feature_names=("f",))
        with pytest.raises(DomainError):
            Dataset(features=np.array([[np.nan]]), labels=np.array([0]), feature_names=("f",))

    @pytest.mark.parametrize("features, labels, names, error, message", [
        (np.ones(2), [0, 1], ("f",), DimensionError, "features must be a 2-d matrix"),
        (np.ones((0, 1)), [], ("f",), DomainError, "dataset needs at least one row and one feature"),
        (np.ones((2, 1)), [0, 1, 1], ("f",), DimensionError, r"expected 2 labels, got \(3,\)"),
        (np.ones((2, 1)), [0, 1], ("f", "g"), DimensionError, "expected 1 feature names, got 2"),
    ])
    def test_shapes_enforced_in_constructor(self, features, labels, names, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            Dataset(features=features, labels=np.array(labels), feature_names=names)

    def test_dataset_arrays_read_only(self):
        ds = Dataset(features=np.ones((2, 1)), labels=np.array([0, 1]), feature_names=("f",))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 7.0

    def test_with_intercept(self):
        ds = Dataset(features=np.ones((2, 1)), labels=np.array([0, 1]), feature_names=("f",))
        ext = ds.with_intercept()
        assert ext.p == 2
        np.testing.assert_allclose(ext.features[:, 1], 1.0)


class TestCsvLoaders:
    def test_round_trip(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("a,b,y\n1.0,2.0,1\n3.5,-1.25,0\n", encoding="utf-8")
        ds = load_dataset_csv(data)
        assert ds.feature_names == ("a", "b")
        np.testing.assert_allclose(ds.features, [[1.0, 2.0], [3.5, -1.25]])

        drw = tmp_path / "w.csv"
        drw.write_text("b0,b1\n0.1,0.2\n0.3,0.4\n", encoding="utf-8")
        draws = load_draws_csv(drw)
        assert draws.param_names == ("b0", "b1")
        assert draws.num_draws == 2

    def test_single_draw_rejected(self, tmp_path):
        drw = tmp_path / "w.csv"
        drw.write_text("b0\n0.1\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_draws_csv(drw)

    def test_missing_label_column(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("a,b\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_dataset_csv(data)

    def test_every_bad_cell_named(self, tmp_path):
        # cells outside their column's domain, ragged rows and non-numeric
        # cells are all named, in row order
        data = tmp_path / "d.csv"
        data.write_text("a,y\n1.0,1\ninf,0\n2.0,2\n", encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            load_dataset_csv(data)
        assert list(err.value.violations) == [
            "row 2, column 'a': non-finite value 'inf'", "row 3: label '2' not in {0, 1}",
        ]
        drw = tmp_path / "w.csv"
        drw.write_text("b0,b1\n0.1,0.2\n0.3\n0.5,x\n", encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            load_draws_csv(drw)
        assert list(err.value.violations) == [
            "draw row 2: expected 2 cells, got 1", "draw row 3, column 'b1': non-numeric value 'x'",
        ]

    def test_repeated_column_names_rejected(self, tmp_path):
        # the second 'y' used to load as a feature named 'y'
        path = tmp_path / "d.csv"
        path.write_text("y,f,y,f,g\n1,2,0,3,4\n", encoding="utf-8")
        message = ["header repeats column names 'y', 'f'"]
        with pytest.raises(ValidationError) as err:
            load_dataset_csv(path)
        assert list(err.value.violations) == message
        # the header is checked before the body, so even a header-only file says so
        path.write_text("y,f,y,f,g\n", encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            load_dataset_csv(path)
        assert list(err.value.violations) == message
        path.write_text("a,a\n1,2\n3,4\n", encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            load_draws_csv(path)
        assert list(err.value.violations) == ["header repeats column names 'a'"]

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        data_csv, draws_csv = tmp_path / "d.csv", tmp_path / "w.csv"
        data_csv.write_text("y,a\n1,2.5\n0,-1\n", encoding="utf-8-sig")
        draws_csv.write_text("y,b\n0.1,0.2\n0.3,0.4\n", encoding="utf-8-sig")
        assert data_csv.read_bytes().startswith(b"\xef\xbb\xbfy,")
        ds = load_dataset_csv(data_csv)
        assert ds.feature_names == ("a",)
        np.testing.assert_array_equal(ds.labels, [1, 0])
        assert load_draws_csv(draws_csv).param_names == ("y", "b")

    def test_non_finite_draw_cells_named(self, tmp_path):
        # the PosteriorDraws constructor alone would raise a bare DomainError
        drw = tmp_path / "w.csv"
        drw.write_text("b0,b1\n0.1,nan\ninf,0.2\n0.3,1e400\n", encoding="utf-8")
        with pytest.raises(ValidationError) as err:
            load_draws_csv(drw)
        assert list(err.value.violations) == [
            "draw row 1, column 'b1': non-finite value 'nan'",
            "draw row 2, column 'b0': non-finite value 'inf'",
            "draw row 3, column 'b1': non-finite value '1e400'",
        ]

    def test_a_well_formed_file_is_never_walked(self, tmp_path, monkeypatch):
        def walk(*args, **kwargs):
            raise AssertionError("the cell walk ran on a well-formed file")

        monkeypatch.setattr(data, "_walk_cells", walk)
        data_csv, draws_csv = tmp_path / "d.csv", tmp_path / "w.csv"
        data_csv.write_text('a,y\n1.5,1\r\n"-2",0\n-0,1', encoding="utf-8")
        draws_csv.write_text("b0,b1\n0.1,1e-3\n-0.0, 2 \n", encoding="utf-8")
        ds = load_dataset_csv(data_csv)
        np.testing.assert_array_equal(ds.features[:, 0].view(np.int64), np.array([1.5, -2.0, -0.0]).view(np.int64))
        np.testing.assert_array_equal(ds.labels, [1, 0, 1])
        np.testing.assert_array_equal(load_draws_csv(draws_csv).values, [[0.1, 1e-3], [-0.0, 2.0]])

    @pytest.mark.parametrize("last_row", ["3,0", "x,0"], ids=["loadtxt", "walk"])
    def test_each_loader_opens_its_file_once(self, tmp_path, monkeypatch, last_row):
        # the walk rewinds the handle that the np.loadtxt parse read from
        opened, walked = [], []
        open_input, walk_cells = data.open_input, data._walk_cells
        monkeypatch.setattr(data, "open_input", lambda *a, **k: opened.append(a[0]) or open_input(*a, **k))
        monkeypatch.setattr(data, "_walk_cells", lambda *a, **k: walked.append(a[0]) or walk_cells(*a, **k))
        path = tmp_path / "t.csv"
        path.write_text(f"\ufeffa,y\n1,0\n2,1\n{last_row}\n", encoding="utf-8")
        for load, row in ((load_dataset_csv, "row"), (load_draws_csv, "draw row")):
            opened.clear()
            walked.clear()
            if last_row == "3,0":
                load(path)
                assert walked == []
            else:
                with pytest.raises(ValidationError, match=f"^{row} 3, column 'a': non-numeric value 'x'$"):
                    load(path)
                assert walked == [[["1", "0"], ["2", "1"], ["x", "0"]]]
            assert opened == [path]

    def test_header_only_file(self, tmp_path):
        # np.loadtxt warns on input without data; the loaders never show it
        data_csv, draws_csv = tmp_path / "d.csv", tmp_path / "w.csv"
        data_csv.write_text("a,y\n", encoding="utf-8")
        draws_csv.write_text("b0,b1", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as err:
                load_dataset_csv(data_csv)
            assert list(err.value.violations) == ["dataset has no data rows"]
            with pytest.raises(ValidationError) as err:
                load_draws_csv(draws_csv)
            assert list(err.value.violations) == ["need at least two draws, got 0"]


# Cells on either side of what float() and np.loadtxt accept, and of the
# columns' domains.
_TRAP_CELLS = (
    "", " ", "\t", "x", "٣", "1_000", " 1 ", "\t0\t", "\x0c1", "1\u2003", "1.", ".5", ".", "-0", "+1",
    "1e400", "-1e400", "1e-400", "-1e-400", "2", "0.5", "nan", "-NaN", "inf", "-Infinity", "+INF", "0x1",
    '"1"', '"0"', '"1,5"', '"1\n0"', '"0\r\n"', '"1"5', '1"5', '" 1"', '"1" ', '""', '"', '"""1"""',
    # bytes that are not UTF-8, as the surrogates that surrogateescape maps them to
    "\udcff", "1\udcfe", "\udc80", "0\udce2\udc82",
)
_CELLS = st.one_of(
    st.sampled_from(("0", "1")),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(_TRAP_CELLS),
    st.text(alphabet='01.-+e_ ,"\t\n\r٣\udcff', max_size=4),
)


@st.composite
def _csv_texts(draw):
    names = draw(st.permutations(["y", "a", "b"]))[: draw(st.integers(1, 3))]
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 4))):
        width = draw(st.sampled_from([len(names)] * 3 + [0, len(names) - 1, len(names) + 1]))
        lines.append(",".join(draw(st.lists(_CELLS, min_size=width, max_size=width))))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    text = text[: -len(ends[-1])] if draw(st.booleans()) else text
    return "\ufeff" + text if draw(st.booleans()) else text


def _outcome(load, path):
    """Bit patterns of the loaded arrays and names, or the violations."""
    try:
        loaded = load(path)
    except ValidationError as err:
        return list(err.violations)
    if isinstance(loaded, Dataset):
        return loaded.feature_names, loaded.features.view(np.int64).tolist(), loaded.labels.tolist()
    return loaded.param_names, loaded.values.view(np.int64).tolist()


class TestLoadtxtAgreesWithTheWalk:
    """The np.loadtxt parse either gives the cell walk's arrays bit for bit or
    leaves the file to the walk, which words the same violations.

    Files are written as bytes: a leading U+FEFF becomes a byte-order mark,
    and a lone surrogate U+DC80..U+DCFF the byte that is not UTF-8.
    """

    @given(_csv_texts())
    @settings(max_examples=300, deadline=None, derandomize=False)
    @example("y,a\n1,2\n\n0,3\n")                     # blank line in the middle
    @example("y,a\r\n1,2\r\n0,3\r\n\r\n")             # CRLF and a trailing blank line
    @example("y,a\n1,2\n0,3")                          # no newline after the last line
    @example("y,a\r1,2\r0,3\r")                        # bare carriage returns
    @example("y,a\n1,1_000\n0, 3\t\n")                 # underscores, spaces and tabs
    @example('y,a\n"1","2"\n"0","3,5"\n1,"4\n5"\n')      # quoted cells, with a comma or a line break
    @example('y,a\n1,"2\n"\n0,3\n')                     # a quoted line break float() strips
    @example("y,a\n1,nan\n0,Infinity\n1,-inf\n0,1e400\n")  # non-finite spellings
    @example("y,a\n1,٣\n0,2\n")                        # a Unicode digit
    @example("y,a\n1,2,\n0,3\n1\n")                     # trailing comma, ragged row
    @example("y,a\n")                                  # header only
    @example("y,a\n1,-0\n-0,-1e-400\n")                 # negative zeros
    @example("\ufeffy,a\n1,2\n0,3\n")                    # a byte-order mark
    @example("\ufeffy,a\n1,2\n0,\udcff\n")               # a byte-order mark and a bad byte
    @example("y,a\udcff\n1,2\n0,3")                      # a bad byte in a column name
    def test_same_arrays_or_same_violations(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "agree.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        for load in (load_dataset_csv, load_draws_csv):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fast = _outcome(load, path)
            with mock.patch.object(data, "_loadtxt_body", return_value=None):
                walked = _outcome(load, path)
            assert fast == walked


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.khat_threshold == 0.7
        assert config.hbar_exponents == tuple(range(11))
        assert config.transform_order == ("PMM1", "PMM2", "KL", "Var", "LL")
        assert config.hbar_values[0] == 1.0
        assert config.hbar_values[-1] == 4.0**-10

    def test_json_round_trip(self):
        config = RunConfig.from_json('{"khat_threshold": 0.5, "transform_order": ["KL"]}')
        assert config.khat_threshold == 0.5
        assert config.transform_order == ("KL",)
        again = RunConfig.from_json(json.dumps(asdict(config)))
        assert again == config

    @pytest.mark.parametrize("text", ["Infinity", "1e999", "-Infinity", "NaN"])
    def test_non_finite_threshold_rejected(self, text):
        """Python's json reads Infinity and 1e999 as inf, and an inf threshold
        would report every unfittable (k-hat = inf) tail as adapted."""
        with pytest.raises(DomainError, match="khat_threshold must be positive and finite"):
            RunConfig.from_json(f'{{"khat_threshold": {text}}}')
        with pytest.raises(DomainError, match="khat_threshold must be positive and finite"):
            RunConfig(khat_threshold=float(text.replace("Infinity", "inf")))

    def test_validation(self):
        with pytest.raises(DomainError):
            RunConfig(khat_threshold=0.0)
        with pytest.raises(DomainError):
            RunConfig(hbar_exponents=())
        with pytest.raises(DomainError):
            RunConfig(transform_order=("KL", "KL"))
        with pytest.raises(DomainError):
            RunConfig(transform_order=("XX",))
        with pytest.raises(ValidationError):
            RunConfig.from_json('{"bogus": 1}')

    def test_repeated_step_scales_rejected(self):
        # a repeated exponent would evaluate the same step scale again on every line
        with pytest.raises(DomainError, match="hbar_exponents contains duplicates"):
            RunConfig(hbar_exponents=(3, 3, 3))
        with pytest.raises(DomainError, match="hbar_exponents contains duplicates"):
            RunConfig.from_json('{"hbar_exponents": [0, 2, 0]}')

    def test_step_scales_stay_positive(self):
        # 4**-537 = 2**-1074 is the smallest positive float; a larger exponent
        # would make a step scale 0, and 10**400 overflows the float power
        assert RunConfig(hbar_exponents=(0, 537)).hbar_values == (1.0, 2.0**-1074)
        for r in (538, 10**400):
            with pytest.raises(DomainError, match="hbar_exponents must be at most 537"):
                RunConfig(hbar_exponents=(0, r))

    @pytest.mark.parametrize("text, key", [
        ('{"khat_threshold": "0.7"}', "khat_threshold"),
        ('{"khat_threshold": null}', "khat_threshold"),
        ('{"hbar_exponents": ["a"]}', "hbar_exponents"),
        ('{"hbar_exponents": 5}', "hbar_exponents"),
        ('{"hbar_exponents": [0.5]}', "hbar_exponents"),
        ('{"transform_order": "PMM1"}', "transform_order"),
    ])
    def test_values_of_the_wrong_type_name_their_key(self, text, key):
        with pytest.raises(ValidationError, match=f"{key} must be a "):
            RunConfig.from_json(text)

    def test_valid_values_echo_unchanged(self):
        config = RunConfig.from_json('{"khat_threshold": 1, "hbar_exponents": [3, 1], "transform_order": ["LL"]}')
        assert asdict(config) == {"khat_threshold": 1, "hbar_exponents": (1, 3), "transform_order": ("LL",)}
        assert RunConfig(hbar_exponents=np.arange(3)).hbar_exponents == (0, 1, 2)

    def test_step_scales_run_largest_first(self):
        # the scan stops at the first success, so it must try the largest step first
        assert RunConfig(hbar_exponents=(3, 0)).hbar_values == (1.0, 4.0**-3)
        assert RunConfig(hbar_exponents=(3, 0, 1)) == RunConfig(hbar_exponents=(0, 1, 3))

    def test_rng_seed_is_an_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown config key 'rng_seed'"):
            RunConfig.from_json('{"khat_threshold": 0.5, "rng_seed": 0}')
        assert "rng_seed" not in asdict(RunConfig())

    def test_removed_keys_are_unknown(self):
        # variational mode follows from passing a variational log density,
        # and the PSIS tail rule is the only one
        for key, value in (("use_variational_correction", "true"), ("tail_fraction_rule", '"psis"')):
            with pytest.raises(ValidationError, match=f"unknown config key '{key}'"):
                RunConfig.from_json(f'{{"{key}": {value}}}')
        assert set(asdict(RunConfig())) == {"khat_threshold", "hbar_exponents", "transform_order"}


class TestPosteriorDraws:
    def test_minimum_two_draws(self):
        with pytest.raises(DomainError):
            PosteriorDraws(values=np.ones((1, 2)), param_names=("a", "b"))

    def test_finite_required(self):
        with pytest.raises(DomainError):
            PosteriorDraws(values=np.array([[1.0], [np.inf]]), param_names=("a",))

    @pytest.mark.parametrize("values, names, message", [
        (np.ones(3), ("a",), "draw values must be a 2-d matrix"),
        (np.ones((3, 2)), ("a",), "expected 2 parameter names, got 1"),
    ])
    def test_shapes_enforced(self, values, names, message):
        with pytest.raises(DimensionError, match=f"^{message}$"):
            PosteriorDraws(values=values, param_names=names)
