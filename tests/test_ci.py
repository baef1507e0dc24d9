import re
import subprocess
import sys
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


def test_values_digest_prints_one_digest():
    """The value digest runs with every warning an error and prints one
    SHA-256, 64 hex digits on one line."""
    script = ROOT / "ci" / "values_digest.py"
    out = subprocess.run([sys.executable, "-W", "error", str(script)], check=True,
                         capture_output=True, text=True).stdout
    assert re.fullmatch(r"[0-9a-f]{64}\n", out)
