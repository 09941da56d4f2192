"""CLI output pinned byte for byte against committed golden files.

Criterion 9 checks that two runs in one process agree; this checks that the
output also matches what earlier versions of the code printed and wrote.
Regenerate the files only for an intended output change (see ``cli_cases``).
"""
import cli_cases
from biblio.cli import main


def test_stdout_matches_golden_bytes(tmp_path, capsys):
    invocations = cli_cases.invocations(tmp_path)
    on_disk = sorted(p.stem for p in cli_cases.GOLDEN_DIR.glob("*.out"))
    assert sorted(name for name, _ in invocations) == on_disk

    differing = []
    for name, argv in invocations:
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == cli_cases.exit_code(name), (name, captured.err)
        if captured.out.encode("utf-8") != cli_cases.golden_path(name).read_bytes():
            differing.append(name)
        written = cli_cases.outputs(argv)
        pinned = sorted(p.name for p in cli_cases.GOLDEN_DIR.glob(f"{name}.*"))
        assert sorted(f"{name}.{output}" for output in ["out", *written]) == pinned
        differing += [f"{name}.{output}" for output, data in written.items()
                      if data != cli_cases.golden_path(name, output).read_bytes()]
    assert not differing, f"output differs from tests/golden/ for {differing}"
