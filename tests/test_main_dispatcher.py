"""``python -m repro`` dispatcher (ISSUE satellite): full roster in
--help, forwarding to subcommand parsers, and a hard error — not a
silent forward into the harness parser — on unknown targets."""

from repro.__main__ import _HARNESS_TARGETS, _SUBCOMMANDS, main


class TestHelp:
    def test_help_lists_every_subcommand(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name, _module, description in _SUBCOMMANDS:
            assert name in out
            assert description.split(":")[0] in out
        for name, _description in _HARNESS_TARGETS:
            assert name in out

    def test_bare_invocation_prints_help(self, capsys):
        assert main([]) == 0
        assert "subcommands:" in capsys.readouterr().out

    def test_roster_covers_known_surfaces(self):
        subcommands = {name for name, _m, _d in _SUBCOMMANDS}
        assert {"service", "multigpu", "db", "reproduce"} <= subcommands
        # the roster and the harness parser's target choices are one set,
        # so neither can gain or lose a target without the other
        from repro.harness.__main__ import build_parser

        [target] = [action for action in build_parser()._actions
                    if action.dest == "target"]
        assert {name for name, _d in _HARNESS_TARGETS} == set(target.choices)


class TestDispatch:
    def test_unknown_target_errors(self, capsys):
        assert main(["warp-drive"]) == 2
        err = capsys.readouterr().err
        assert "unknown subcommand" in err
        assert "warp-drive" in err
        assert "subcommands:" in err  # help lands on stderr for scripts

    def test_harness_targets_reach_harness_parser(self, capsys):
        # --help inside the forwarded parser proves the forward happened
        import pytest

        with pytest.raises(SystemExit) as exc:
            main(["table1", "--help"])
        assert exc.value.code == 0
        assert "repro.harness" in capsys.readouterr().out

    def test_subcommand_reaches_own_parser(self, capsys):
        import pytest

        with pytest.raises(SystemExit) as exc:
            main(["multigpu", "--help"])
        assert exc.value.code == 0
        assert "survival" in capsys.readouterr().out
