"""The generated sources against their committed SHA-256 digests.

tests/golden/sources.sha256 holds, in sha256sum's format, the digest of
each source that the package generates: the numpy path's stage function,
and for n = 1..16 the float path's stage function and the Merson and
RKF45 comparator steps, named as tools/stable_outputs.sh writes them
under sources/.  A change that means to move a generated line updates
the digests in the same change and states why.
"""

import hashlib
import linecache
import pathlib

import pytest

from asode import reference_rk, stepper

SOURCES_GOLDEN = pathlib.Path(__file__).parent / "golden" / "sources.sha256"


def generated_sources() -> dict:
    """Each generated source by its file name under sources/."""
    code = stepper._numpy_stages.__code__
    out = {"numpy_stages.py": "".join(linecache.getlines(code.co_filename))}
    for n in range(1, 17):
        out[f"float_stages_{n}.py"] = stepper._float_stages_source(
            n, f"_float_stages_{n}")
        for name, tableau in reference_rk.TABLEAUS.items():
            out[f"{name}_step_{n}.py"] = reference_rk._step_source(
                tableau, n, f"_step_{name}_{n}")
    return out


def test_generated_sources_match_golden():
    want = {}
    for line in SOURCES_GOLDEN.read_text().splitlines():
        digest, name = line.split("  ")
        want[name] = digest
    got = {name: hashlib.sha256(source.encode()).hexdigest()
           for name, source in generated_sources().items()}
    lines = [f"{name}: {'missing' if name not in got else 'extra'}"
             for name in sorted(set(got) ^ set(want))]
    lines += [f"{got[name]}  {name}" for name in sorted(set(got) & set(want))
              if got[name] != want[name]]
    if lines:
        pytest.fail(
            "generated sources differ from tests/golden/sources.sha256; "
            "each differing source with its new digest:\n  "
            + "\n  ".join(lines)
            + "\nA change that means to move a generated line writes these "
            "lines into the golden (or all of them: `sha256sum *.py` in the "
            "sources/ directory that tools/stable_outputs.sh writes) and "
            "states the difference.", pytrace=False)
