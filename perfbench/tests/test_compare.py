import json

import compare


def write(directory, name, backend, wall):
    directory.mkdir(exist_ok=True)
    record = {
        "workload": "sweep-d3",
        "trace": 0,
        "fingerprint": {"env": {"backend": backend}, "code": {"source_sha256": directory.name}},
        "metrics": {"wall_s": {"value": wall, "unit": "s"}},
    }
    (directory / f"{name}.json").write_text(json.dumps(record))


def test_same_environment_is_compared(tmp_path, capsys):
    for i, wall in enumerate((4.0, 4.2)):
        write(tmp_path / "base", f"r{i}", "python", wall)
        write(tmp_path / "new", f"r{i}", "python", wall / 2)
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 0
    assert "new/base 0.5000" in capsys.readouterr().out


def test_compiled_and_python_backends_are_never_compared(tmp_path, capsys):
    write(tmp_path / "base", "r0", "python", 4.0)
    write(tmp_path / "new", "r0", "compiled", 2.0)
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 2
    assert "refusing" in capsys.readouterr().err
