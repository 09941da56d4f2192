"""CLI stdout pinned byte for byte against committed golden files.

Criterion 9 checks that two runs in one process agree; this checks that the
output also matches what earlier versions of the code printed. Regenerate the
files only for an intended output change (see ``cli_cases``).
"""
import cli_cases
from biblio.cli import main


def test_stdout_matches_golden_bytes(tmp_path, capsys):
    invocations = cli_cases.invocations(tmp_path)
    on_disk = sorted(p.stem for p in cli_cases.GOLDEN_DIR.glob("*.out"))
    assert sorted(argv[0] for argv in invocations) == on_disk

    differing = []
    for argv in invocations:
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 0, (argv[0], captured.err)
        if captured.out.encode("utf-8") != cli_cases.golden_path(argv[0]).read_bytes():
            differing.append(argv[0])
    assert not differing, f"stdout differs from tests/golden/ for {differing}"
