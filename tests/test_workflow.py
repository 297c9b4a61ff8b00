"""The CI workflow, read as text: a failing step hides none after it."""

from pathlib import Path

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
ALWAYS = "if: ${{ !cancelled() }}"


def workflow_steps(text):
    """Each step of the one job's ``steps:`` list, as its lines with the
    list item's indent taken off."""
    lines = text.splitlines()
    start = next(k for k, line in enumerate(lines) if line.strip() == "steps:") + 1
    indent = len(lines[start]) - len(lines[start].lstrip())
    steps = []
    for line in lines[start:]:
        if line.strip() and len(line) - len(line.lstrip()) < indent:
            break  # the list has ended
        if line[indent:].startswith("- "):
            steps.append([])
        steps[-1].append(line[indent + 2:])
    return steps


def test_every_step_after_the_first_test_step_runs_after_a_failure():
    steps = workflow_steps(WORKFLOW.read_text(encoding="utf-8"))
    install = next(k for k, step in enumerate(steps)
                   if any("pip install" in line for line in step))
    # the first test step follows the install; each later one runs whether
    # or not a step before it failed, and a failure still fails the job
    later = steps[install + 2:]
    assert len(later) >= 10
    for step in later:
        assert ALWAYS in (line.strip() for line in step), step[0]


def test_no_step_embeds_a_python_program():
    """The oracle sweeps are tier-1 tests, not programs in the workflow."""
    assert "python - <<" not in WORKFLOW.read_text(encoding="utf-8")
