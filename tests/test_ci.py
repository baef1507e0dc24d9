import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_workflow_runs_the_smoke_script():
    """CI's CLI smoke step is the script, and bash parses the script."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert "run: bash ci/smoke.sh\n" in workflow
    subprocess.run(["bash", "-n", str(ROOT / "ci" / "smoke.sh")], check=True)


def test_cli_bytes_script_parses():
    """bash parses the script that records the CLI's bytes for a diff."""
    subprocess.run(["bash", "-n", str(ROOT / "ci" / "cli_bytes.sh")], check=True)
