"""No library operation leaves a reference cycle behind.

An operation whose working state dies by reference counting costs nothing
at the next collection; a cycle waits for the cyclic collector, whose pauses
then fall on later operations. Each operation runs once to warm its caches,
then once more with the collector off, and a collection afterwards must find
nothing unreachable.

Two entry points are left out, because their cycles come from the standard
library and not from lpict: every `run_cli` call builds an argparse parser,
which leaves about 216 cyclic objects, and the JSON rendering of a report uses
the `indent=2` encoder of `json`, which leaves 33 per report.
"""

import gc

import pytest

from lpict.analysis import dual_environment_verdict, entailment_sequent
from lpict.logic.proofs import check_proof
from lpict.logic.search import cross_validate, search_both
from lpict.logic.semantics import semantic_entails
from lpict.models import builtin_tls13, load_model, render_model
from lpict.pi.congruence import canonical_key, normalize, standard_form, structurally_congruent
from lpict.pi.parser import parse_process
from lpict.pi.reduction import reduce_step
from lpict.report import build_dual_report, render_report

# every binder links its own two components: a level of one-binder groups
ONE_BINDER = parse_process(" | ".join(f"new k{i} (e<k{i}>.0 | k{i}(x).0)" for i in range(4)))
ONE_BINDER_RENAMED = parse_process(" | ".join(f"new m{i} (m{i}(x).0 | e<m{i}>.0)" for i in range(4)))
# one component per edge of the 3-cube: one group whose labelling searches and prunes
CUBE_EDGES = [(u, u | 1 << b) for u in range(8) for b in range(3) if not u & 1 << b]
CUBE = parse_process(
    "new " + " new ".join(f"k{i}" for i in range(8)) + " (" + " | ".join(f"(e<k{u}>.0 + e<k{v}>.0)" for u, v in CUBE_EDGES) + ")"
)
SENDERS = parse_process(" | ".join(["new k x<k>.k(v).0"] * 4 + ["x(y).y<w>.0"] * 4))

TLS13 = render_model(builtin_tls13())
MODEL = load_model(TLS13)
VERDICT = dual_environment_verdict(MODEL)
SEQUENT = entailment_sequent(MODEL.lts)
PREMISES, CONCLUSION = SEQUENT.premises, SEQUENT.conclusion
FORWARD, _ = search_both(PREMISES, CONCLUSION)

OPERATIONS = {
    "canonical_key one-binder groups": lambda: canonical_key(ONE_BINDER),
    "standard_form one-binder groups": lambda: standard_form(ONE_BINDER),
    "structurally_congruent one-binder groups": lambda: structurally_congruent(ONE_BINDER, ONE_BINDER_RENAMED),
    "canonical_key 3-cube": lambda: canonical_key(CUBE),
    "standard_form 3-cube": lambda: standard_form(CUBE),
    "structurally_congruent 3-cube": lambda: structurally_congruent(CUBE, CUBE),
    "reduce_step senders and receivers": lambda: reduce_step(SENDERS),
    "normalize senders and receivers": lambda: normalize(SENDERS),
    "load_model tls13": lambda: load_model(TLS13),
    "dual_environment_verdict tls13": lambda: dual_environment_verdict(load_model(TLS13)),
    "build_dual_report tls13": lambda: build_dual_report(MODEL, VERDICT),
    "render_report text tls13": lambda: render_report(build_dual_report(MODEL, VERDICT)),
    "semantic_entails": lambda: semantic_entails(PREMISES, CONCLUSION),
    "search_both": lambda: search_both(PREMISES, CONCLUSION),
    "check_proof": lambda: check_proof(SEQUENT, FORWARD),
    "cross_validate": lambda: cross_validate(PREMISES, CONCLUSION),
}


@pytest.mark.parametrize("name", OPERATIONS)
def test_operation_leaves_no_reference_cycle(name):
    operation = OPERATIONS[name]
    operation()
    gc.collect()
    gc.disable()
    try:
        operation()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
