"""Golden corpus: the CLI's stdout, reduced files and traces stay byte-identical.

tests/golden/make_corpus.py wrote every expected file; a mismatch here means
an output changed. Regenerate the corpus only when that change is intended.
"""

import json
import os
import sys

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
sys.path.insert(0, GOLDEN)

from make_corpus import run_case  # noqa: E402


def test_cli_outputs_match_golden_bytes(tmp_path):
    with open(os.path.join(GOLDEN, "cases.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert len(manifest) >= 40
    mismatched = []
    for name, argv in manifest.items():
        case_dir = os.path.join(GOLDEN, "cases", name)
        work = tmp_path / name
        work.mkdir()
        got = run_case(case_dir, argv, str(work))
        for fname, data in got.items():
            with open(os.path.join(case_dir, fname), "rb") as fh:
                if fh.read() != data:
                    mismatched.append(f"{name}/{fname}")
    assert not mismatched, f"outputs differ from the golden corpus: {mismatched}"
