"""Reference output digests produced by the functional XSLT VM.

The functional VM is the independent interpreter the relational rewrite
is checked against: a rewritten request is correct when its serialized
output is byte-identical to the VM's.  ``digests.json`` holds the
SHA-256 of the VM's output for every (size, case) a workload runs; for
the cases that fall back to the VM these committed digests act as golden
files.  The xsltmark generator takes no seed (its documents are a pure
function of the size), so the digests do not depend on ``--seed``: the
seed only orders requests and picks stylesheet variants and write
schedules.

Regenerate after a deliberate output change with::

    PYTHONPATH=src python3 perfbench/reference.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")

#: the xsltmark cases whose stylesheets the engine rewrites into SQL/XML
REWRITE_CASES = (
    "dbonerow", "dbaccess", "dbtail", "decoy", "oddtemplates", "avts",
    "creation", "attsets", "output", "vocab", "chart", "total", "metric",
    "summarize", "product", "patterns", "priority", "union", "inventory",
    "stringsort", "numsort", "breadth", "workbook",
)
#: the cases that fall back to functional evaluation by the XSLT VM
FALLBACK_CASES = (
    "current", "games", "functions", "encrypt", "alphabetize", "reverser",
    "bottles", "tower", "queens", "identity", "axis", "backwards",
    "position", "number", "keys", "trend", "depth",
)
#: rows per document in each workload
REWRITE_SIZE = 1000
FALLBACK_SIZE = 300
COLD_SIZE = 10


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def key(case_name, size):
    return "%s@%d" % (case_name, size)


def load_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def functional_output(engine, storage, stylesheet):
    """The VM's serialized output for ``stylesheet`` over ``storage``."""
    from repro.api import TransformOptions

    result = engine.transform(storage, stylesheet,
                              options=TransformOptions(rewrite=False))
    return "".join(result.serialized_rows())


def _write():
    import logging

    from repro.api import Engine
    from repro.xsltmark.cases import get_case
    from repro.xsltmark.runner import prepare_case

    logging.getLogger("repro").setLevel(logging.ERROR)
    out = {}
    sizes = [(name, (COLD_SIZE, REWRITE_SIZE)) for name in REWRITE_CASES]
    sizes += [(name, (COLD_SIZE, FALLBACK_SIZE)) for name in FALLBACK_CASES]
    for name, case_sizes in sizes:
        case = get_case(name)
        for size in case_sizes:
            prepared = prepare_case(case, size)
            text = functional_output(Engine(prepared.db), prepared.storage,
                                     case.stylesheet)
            out[key(case.name, size)] = digest(text)
            print("%-14s %5d %s" % (case.name, size, out[key(case.name,
                                                             size)][:16]))
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.exit(_write())
