"""CLI tests (python -m repro)."""

import pytest

from repro.__main__ import build_parser, main
from repro.harness import figures as F


class TestParser:
    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "lorenz"])
        assert args.config == "seq_short"
        assert args.altmath == "boxed_ieee"
        assert args.scale is None

    def test_run_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "spec2017"])

    def test_run_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "lorenz", "--config", "warp"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "lorenz" in out and "boxed_ieee" in out

    def test_run_small(self, capsys):
        assert main(["run", "lorenz", "--scale", "30"]) == 0
        out = capsys.readouterr().out
        assert "bit-for-bit:        True" in out
        assert "slowdown:" in out
        assert "altmath" in out

    def test_run_with_config_and_altmath(self, capsys):
        assert main(["run", "fbench", "--scale", "2",
                     "--config", "none", "--altmath", "posit"]) == 0
        out = capsys.readouterr().out
        assert "NONE, posit" in out

    def test_characterize(self, capsys):
        assert main(["characterize", "lorenz", "--scale", "30", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "rank 1:" in out
        assert "avg length" in out

    def test_characterize_verbose(self, capsys):
        assert main(["characterize", "lorenz", "--scale", "20",
                     "--top", "1", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "terminator" in out

    def test_figures_writes_files(self, tmp_path, capsys, monkeypatch):
        # The real registry at full scale is a benchmark (and the golden
        # tests cover its contents); here a two-entry stand-in checks the
        # command's loop: every entry written, MPFR skipped on request.
        fake = {
            "one": F.Figure("one", None, lambda: 7, lambda d: f"One\n\n  {d}"),
            "big": F.Figure("big", "mpfr", lambda s: s.altmath, str),
        }
        monkeypatch.setattr(F, "FIGURES", fake)
        assert main(["figures", "--skip-mpfr", "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["one.txt"]
        assert (tmp_path / "one.txt").read_text() == "One\n\n  7\n"
        assert main(["figures", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "big.txt").read_text() == "mpfr\n"
        assert "all figures regenerated in" in capsys.readouterr().out
