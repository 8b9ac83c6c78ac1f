"""The README's library quick start, run as written."""

from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def quick_start_lines() -> list:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_library_quick_start_values_hold():
    # each `# value` comment must be the repr of the line's value, or True
    # for a value that is true; any words after the value are a gloss
    namespace: dict = {}
    checked = 0
    for line in quick_start_lines():
        code, _, comment = line.partition("#")
        if not comment.strip():
            exec(code, namespace)
            continue
        want = comment.split()[0]
        got = eval(code, namespace)
        assert repr(got) == want or (want == "True" and got == True), (line, got)  # noqa: E712
        checked += 1
    assert checked
