import inspect
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, f"{README.name} (Library quick start)", "exec"), {})


def test_every_export_is_named():
    import isofield

    text = README.read_text()
    exports = [name for name, obj in vars(isofield).items()
               if not name.startswith("_") and not inspect.ismodule(obj)]
    assert [name for name in exports if f"`{name}" not in text] == []
