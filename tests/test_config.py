import math

import numpy as np
import pytest

from llap.config import ConfigError, parse_config
from llap.fieldio import dump_field, dump_sidecar
from llap.kernels import make_kernel

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
        cfg = parse_config(REFERENCE)
        grid = cfg.grid()
        spec = cfg.symbol_spec(grid)
        K = cfg.kernel(grid, spec)
        assert K.family == "difference"
        assert K.params["shift"] == spec.shift
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
        assert K.family.startswith("projected:")

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

    def test_file_kernel_with_sidecar(self, tmp_path):
        cfg0 = parse_config(REFERENCE)
        grid = cfg0.grid()
        K = make_kernel("gaussian", {"width": 1.0, "amplitude": 0.5}, grid)
        path = tmp_path / "kern.llap"
        dump_field(K.samples, path)
        dump_sidecar(tmp_path / "kern.llap.meta", "gaussian", K.params)
        text = REFERENCE.replace(
            "family = difference\nwidth1 = 1.0\nwidth2 = 2.0\namplitude = 1.0",
            f"family = file\npath = {path}",
        )
        cfg = parse_config(text, source=str(tmp_path / "run.cfg"))
        loaded = cfg.kernel(grid, cfg.symbol_spec(grid))
        assert loaded.family == "gaussian"
        assert loaded.l1 == pytest.approx(K.l1)

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
