import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import llap.config
from llap.cli import EXIT_CONFIG, main
from llap.config import ConfigError, RunConfig, load_config, parse_config
from llap.fieldio import dump_field
from llap.grid import RealField
from llap.kernels import inverse_symbol_gain, make_kernel
from conftest import Runner

REFERENCE = """
[grid]
d = 1
L = 20.0
n = 1024

[symbol]
a = 0.0
eps_user = 0.1

[kernel]
family = difference
width1 = 1.0
width2 = 2.0
amplitude = 1.0

[nonlinearity]
family = saturating_sine
l = 0.1
h_family = gauss_bump
h_amplitude = 0.3
h_width = 1.0

[solver]
tol = 1e-10
max_iter = 200
seed = 0

[sequence]
kind = truncate
members = 6
r_start = 6.0
r_stop = 14.0
cutoff_width = 2.0
"""


class TestParsing:
    def test_reference_parses(self):
        cfg = parse_config(REFERENCE)
        grid = cfg.grid()
        assert grid.n == 1024
        spec = cfg.symbol_spec(grid)
        assert spec.shift == 0.0
        assert spec.eta == pytest.approx(2.0 * math.pi / 20.0)  # default
        assert cfg.eps_user == 0.1
        assert cfg.tol == 1e-10

    def test_comments_and_blanks(self):
        cfg = parse_config("# leading comment\n\n[grid]\nd = 1  # inline\nL = 5.0\nn = 64\n"
                           "[symbol]\na = 0.0\n[kernel]\nfamily = gaussian\n"
                           "[nonlinearity]\nfamily = rational\nl = 0.1\n")
        assert cfg.grid().n == 64

    def test_unknown_section_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("[grids]\nd = 1\n")

    def test_unknown_key_line_number(self):
        text = "[grid]\nd = 1\nL = 5.0\nn = 64\nspacing = 0.1\n"
        with pytest.raises(ConfigError, match="line 5"):
            parse_config(text)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("[grid]\nd = 1\nd = 2\nL = 5.0\nn = 64\n")

    def test_bad_value_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("[grid]\nd = one\nL = 5.0\nn = 64\n")

    @pytest.mark.parametrize(
        "old, new",
        [
            ("eps_user = 0.1", "eps_user = 0.0"),
            ("eps_user = 0.1", "eps_user = 1.0"),
            ("eps_user = 0.1", "eps_user = nan"),
            ("a = 0.0", "a = -inf"),
            ("a = 0.0", "a = inf"),
            ("a = 0.0", "a = nan"),
            ("tol = 1e-10", "tol = -1e-10"),
            ("tol = 1e-10", "tol = nan"),
            ("max_iter = 200", "max_iter = 0"),
            ("seed = 0", "seed = -1"),
            ("seed = 0", "v0_scale = -1"),
            ("seed = 0", "v0_scale = nan"),
            ("seed = 0", "v0_scale = inf"),
        ],
    )
    def test_out_of_range_value_line_number(self, old, new):
        text = REFERENCE.replace(old, new)
        line = text.splitlines().index(new) + 1
        with pytest.raises(ConfigError, match=f"line {line}: "):
            parse_config(text)

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config("d = 1\n")

    def test_missing_required_section(self):
        with pytest.raises(ConfigError, match=r"\[nonlinearity\]"):
            parse_config("[grid]\nd = 1\nL = 5.0\nn = 64\n[symbol]\na = 0.0\n[kernel]\nfamily = gaussian\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="'l'"):
            parse_config(
                "[grid]\nd = 1\nL = 5.0\nn = 64\n[symbol]\na = 0.0\n"
                "[kernel]\nfamily = gaussian\n[nonlinearity]\nfamily = rational\n"
            )

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("[grid]\nd 1\n")

    def test_bool_values(self):
        text = REFERENCE.replace("[solver]", "[solver]\ndump_field = true")
        assert parse_config(text).get("solver", "dump_field") is True
        with pytest.raises(ConfigError, match="boolean"):
            parse_config(REFERENCE.replace("[solver]", "[solver]\ndump_field = maybe"))


class TestBuilders:
    def test_kernel_and_nonlinearity(self):
        # The difference kernel vanishes on the sphere |p| = e^a of the
        # config's own shift; one tuned to a = 0 leaves a residual of 0.11.
        cfg = parse_config(REFERENCE.replace("a = 0.0", "a = 0.3"))
        grid = cfg.grid()
        spec = cfg.symbol_spec(grid)
        K = cfg.kernel(grid, spec)
        assert inverse_symbol_gain(K, spec).orth_residual <= 1e-12 * K.l1
        N = cfg.nonlinearity(grid)
        assert N.lip == 0.1
        assert N.growth == 0.1
        assert N.offset.values.max() == pytest.approx(0.3)

    def test_projected_kernel(self):
        text = REFERENCE.replace(
            "family = difference\nwidth1 = 1.0\nwidth2 = 2.0\namplitude = 1.0",
            "family = gaussian\nwidth = 1.0\namplitude = 1.0\nproject = true\ntaper_width = 0.25",
        ).replace("a = 0.0", "a = 0.0\neta = 0.05")
        cfg = parse_config(text)
        grid = cfg.grid()
        spec = cfg.symbol_spec(grid)
        K = cfg.kernel(grid, spec)
        # The raw Gaussian's residual is 0.61.
        assert inverse_symbol_gain(K, spec).orth_residual <= 1e-10 * K.l1

    def test_schedule(self):
        cfg = parse_config(REFERENCE)
        sched = cfg.schedule()
        assert sched.kind == "truncate"
        assert sched.members == 6

    def test_missing_sequence_section(self):
        cfg = parse_config(REFERENCE.split("[sequence]")[0])
        with pytest.raises(ConfigError, match="sequence"):
            cfg.schedule()

    def test_random_start_deterministic(self):
        text = REFERENCE.replace("seed = 0", "seed = 7\nv0 = random\nv0_scale = 0.5")
        cfg = parse_config(text)
        grid = cfg.grid()
        a = cfg.starting_field(grid)
        b = cfg.starting_field(grid)
        assert np.array_equal(a.values, b.values)

    def test_zero_start_is_none(self):
        cfg = parse_config(REFERENCE)
        assert cfg.starting_field(cfg.grid()) is None

    def test_constant_offset(self):
        text = REFERENCE.replace(
            "h_family = gauss_bump\nh_amplitude = 0.3\nh_width = 1.0",
            "h_family = constant\nh_value = 0.25",
        )
        cfg = parse_config(text)
        h = cfg.offset_field(cfg.grid())
        assert np.all(h.values == 0.25)

    def test_huge_offset_width_is_a_constant_offset(self):
        # width**2 overflowed here; (x / width)**2 underflows to 0 instead.
        cfg = parse_config(REFERENCE.replace("h_width = 1.0", "h_width = 1e300"))
        h = cfg.offset_field(cfg.grid())
        assert np.all(h.values == 0.3)

    def test_file_kernel_with_sidecar(self, tmp_path, runner):
        # A kernel file is its dump alone: a malformed kern.llap.meta beside
        # it is not read and changes nothing.
        grid = parse_config(REFERENCE).grid()
        K = make_kernel(
            "difference", {"width1": 1.0, "width2": 2.0, "amplitude": 1.0, "shift": 0.0}, grid
        )
        dump_field(K.samples, tmp_path / "kern.llap")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(REFERENCE.replace(DIFFERENCE, "family = file\npath = kern.llap"))
        certificates = []
        for name in ("alone", "with-sidecar"):
            result = runner.invoke(main, ["certify", str(cfg), "-o", str(tmp_path / name)])
            assert result.exit_code == 0
            certificates.append((tmp_path / name / "certificate.txt").read_bytes())
            (tmp_path / "kern.llap.meta").write_text("family = gaussian\nwidth 1.0\n")
        assert certificates[0] == certificates[1]

    def test_file_kernel_grid_mismatch(self, tmp_path):
        cfg0 = parse_config(REFERENCE)
        other = parse_config(REFERENCE.replace("n = 1024", "n = 512"))
        K = make_kernel("gaussian", {"width": 1.0}, other.grid())
        path = tmp_path / "k.llap"
        dump_field(K.samples, path)
        text = REFERENCE.replace(
            "family = difference\nwidth1 = 1.0\nwidth2 = 2.0\namplitude = 1.0",
            f"family = file\npath = {path}",
        )
        cfg = parse_config(text)
        with pytest.raises(ConfigError, match="match"):
            cfg.kernel(cfg0.grid(), cfg0.symbol_spec(cfg0.grid()))


DIFFERENCE = "family = difference\nwidth1 = 1.0\nwidth2 = 2.0\namplitude = 1.0"
BUMP = "h_family = gauss_bump\nh_amplitude = 0.3\nh_width = 1.0"


class TestFileInputs:
    """Kernels and offsets read from field dumps."""

    @staticmethod
    def _dumps(directory):
        # A Gaussian kernel and a bump offset on the REFERENCE grid.
        grid = parse_config(REFERENCE).grid()
        K = make_kernel("gaussian", {"width": 1.0, "amplitude": 0.5}, grid)
        h = RealField(0.3 * np.exp(-grid.radius_mesh() ** 2 / 2.0), grid)
        dump_field(K.samples, directory / "kern.llap")
        dump_field(h, directory / "h.llap")
        return K, h

    def test_file_offset_loads(self, tmp_path):
        _, h = self._dumps(tmp_path)
        text = REFERENCE.replace(BUMP, f"h_family = file\nh_path = {tmp_path / 'h.llap'}")
        cfg = parse_config(text)
        assert np.array_equal(cfg.offset_field(cfg.grid()).values, h.values)

    def test_file_kernel_without_sidecar(self, tmp_path):
        K, _ = self._dumps(tmp_path)
        text = REFERENCE.replace(DIFFERENCE, f"family = file\npath = {tmp_path / 'kern.llap'}")
        cfg = parse_config(text)
        grid = cfg.grid()
        loaded = cfg.kernel(grid, cfg.symbol_spec(grid))
        assert np.array_equal(loaded.samples.values, K.samples.values)

    def test_relative_paths_resolve_against_the_config_directory(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        K, h = self._dumps(run_dir)
        text = REFERENCE.replace(DIFFERENCE, "family = file\npath = kern.llap").replace(
            BUMP, "h_family = file\nh_path = h.llap"
        )
        (run_dir / "run.cfg").write_text(text)
        monkeypatch.chdir(tmp_path)
        cfg = load_config("run/run.cfg")
        grid = cfg.grid()
        loaded = cfg.kernel(grid, cfg.symbol_spec(grid))
        assert np.array_equal(loaded.samples.values, K.samples.values)
        assert np.array_equal(cfg.offset_field(grid).values, h.values)


@pytest.mark.parametrize(
    "old, new, line",
    [
        pytest.param(
            BUMP, "h_family = file\nh_path = coarse.llap",
            "offset file grid does not match the [grid] section",
            id="offset-file-grid-mismatch",
        ),
        pytest.param(
            BUMP, "h_family = constant\nh_value = -0.5",
            "constant offset must be nonnegative",
            id="negative-constant-offset",
        ),
        pytest.param(
            DIFFERENCE, "family = file", "kernel family 'file' needs a path",
            id="file-kernel-without-path",
        ),
        pytest.param(
            "cutoff_width = 2.0\n", "cutoff_width = 2.0\n\n[grid]\nd = 2\n",
            "line 36: duplicate section [grid]",
            id="duplicate-section",
        ),
        pytest.param(
            DIFFERENCE, "family = file\npath = short.llap",
            "{dir}/short.llap: truncated field dump",
            id="dump-shorter-than-header",
        ),
    ],
)
def test_refused_in_one_line(tmp_path, old, new, line):
    coarse = parse_config(REFERENCE.replace("n = 1024", "n = 512")).grid()
    dump_field(RealField.zeros(coarse), tmp_path / "coarse.llap")
    (tmp_path / "short.llap").write_bytes(b"LLAP" + bytes(8))
    assert old in REFERENCE
    cfg = tmp_path / "run.cfg"
    cfg.write_text(REFERENCE.replace(old, new))
    result = Runner().invoke(main, ["certify", str(cfg), "-o", str(tmp_path / "out")])
    assert result.exit_code == EXIT_CONFIG
    assert result.stderr == f"config error: {line.format(dir=tmp_path)}\n"
    assert result.stdout == ""


_CONFIGS = Path(__file__).resolve().parent.parent / "configs"
_SHIPPED_TEXTS = [path.read_text() for path in sorted(_CONFIGS.glob("*.cfg"))]


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    text=st.sampled_from(_SHIPPED_TEXTS),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["delete", "insert", "substitute"]),
            st.integers(0, 2000),
            st.one_of(st.sampled_from("[]=#\n .-+e019"), st.characters()),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_every_mutated_text_parses_or_is_refused(text, edits):
    # Parser totality: no edit of a config text escapes as another exception.
    for op, i, char in edits:
        i %= len(text) + 1
        text = text[:i] + ("" if op == "delete" else char) + text[i + (op != "insert") :]
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


def test_every_config_key_is_documented():
    # Each section and key of the schema appears in its row of the README's
    # config table, in backticks, and in its block of the module docstring.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = {
        line.split("|")[1].strip(): line for line in readme.splitlines() if line.startswith("| `[")
    }
    blocks = dict(re.findall(r"\[(\w+)\]([^[]*)", llap.config.__doc__))
    for section, keys in llap.config._SCHEMA.items():
        row, block = rows[f"`[{section}]`"], blocks[section]
        for key in keys:
            assert f"`{key}`" in row, (section, key)
            assert re.search(rf"\b{key}\b", block), (section, key)
