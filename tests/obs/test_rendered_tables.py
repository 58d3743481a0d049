"""The printed tables, pinned: every section of the committed
documents, rendered through :data:`repro.obs.schema.SECTIONS`, matches
``rendered_tables.txt`` line for line, so a renderer change that moves
one character of a printed table fails here.  Regenerate the file only
with a deliberate change of a table's format."""

import json
import pathlib

from repro.obs import validate_report
from repro.obs.schema import SECTIONS

ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = pathlib.Path(__file__).with_name("rendered_tables.txt")
DOCUMENTS = ("BENCH_report.json", "BENCH_throughput.json",
             "BENCH_lockcache.json", "BENCH_scaling.json")


def _rendered(name):
    doc = json.loads((ROOT / name).read_text())
    validate_report(doc)
    return "".join("== %s %s ==\n%s\n" % (name, key, section.render(doc[key]))
                   for key, section in SECTIONS.items()
                   if section.render is not None and key in doc)


def test_committed_documents_render_to_the_golden_text():
    rendered = "".join(map(_rendered, DOCUMENTS))
    golden = GOLDEN.read_text()
    assert rendered.splitlines() == golden.splitlines()
    assert rendered == golden
