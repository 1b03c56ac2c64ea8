"""Fixture-based tests: every rule family fires on bad input, passes good."""

from pathlib import Path

from repro.check import ALL_RULES, load_project, run_rules

FIXTURES = Path(__file__).parent / "fixtures"


def run_fixture(name, only=None):
    project = load_project(FIXTURES / name)
    assert project.modules, f"fixture {name} loaded no modules"
    return run_rules(project, ALL_RULES, only=only)


def fired(findings):
    return {finding.rule for finding in findings if not finding.suppressed}


# --------------------------------------------------------------------------- #
# lock discipline
# --------------------------------------------------------------------------- #
def test_lock_rules_fire_on_bad_fixture():
    rules = fired(run_fixture("lock_bad"))
    assert {"LCK001", "LCK002", "LCK003"} <= rules


def test_lock_rules_pass_on_good_fixture():
    assert fired(run_fixture("lock_good")) == set()


def test_lck001_names_the_attribute_and_class():
    findings = [
        f for f in run_fixture("lock_bad", only=["LCK001"]) if not f.suppressed
    ]
    assert len(findings) == 1
    assert "'_count'" in findings[0].message
    assert "'Widget'" in findings[0].message
    assert findings[0].path.endswith("engine/state.py")


def test_lck003_reports_the_cycle_ordering():
    findings = [
        f for f in run_fixture("lock_bad", only=["LCK003"]) if not f.suppressed
    ]
    assert findings
    assert "Widget._alpha_lock" in findings[0].message
    assert "Widget._beta_lock" in findings[0].message


# --------------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------------- #
def test_determinism_rules_fire_on_bad_fixture():
    rules = fired(run_fixture("det_bad"))
    assert {"DET001", "DET002", "DET003", "DET004"} <= rules


def test_determinism_rules_pass_on_good_fixture():
    assert fired(run_fixture("det_good")) == set()


def test_determinism_scope_is_limited_to_result_producing_modules():
    # identical source outside the kernel/runner scope is not flagged
    project = load_project(FIXTURES / "det_bad")
    module = project.modules[0]
    module.relpath = "study/simulation_helper.py"
    assert fired(run_rules(project, ALL_RULES)) == set()


# --------------------------------------------------------------------------- #
# pickle safety
# --------------------------------------------------------------------------- #
def test_pickle_rule_fires_on_bad_fixture():
    findings = [
        f for f in run_fixture("pickle_bad", only=["PKL001"]) if not f.suppressed
    ]
    messages = " | ".join(finding.message for finding in findings)
    assert "threading.Lock" in messages
    assert "queue.Queue" in messages
    assert "lambda" in messages


def test_pickle_rule_passes_on_good_fixture():
    # the good manager reaches Estimator through a factory method; the walk
    # follows it and still comes back clean
    assert fired(run_fixture("pickle_good")) == set()


# --------------------------------------------------------------------------- #
# registry drift
# --------------------------------------------------------------------------- #
def test_registry_rules_fire_on_bad_fixture():
    rules = fired(run_fixture("registry_bad"))
    assert {"REG003", "REG004", "REG005"} <= rules


def test_registry_rules_pass_on_good_fixture():
    assert fired(run_fixture("registry_good")) == set()


# --------------------------------------------------------------------------- #
# persistence discipline
# --------------------------------------------------------------------------- #
def test_persist_rule_fires_on_bad_fixture():
    findings = [
        f for f in run_fixture("persist_bad", only=["PER001"]) if not f.suppressed
    ]
    messages = " | ".join(f.message for f in findings)
    assert len(findings) == 3
    assert "'Ledger.record'" in messages and "'_events'" in messages
    assert "'Ledger.forget'" in messages and "'_index'" in messages
    assert "'Ledger.reset'" in messages
    # the unpersisted counter in 'advance' is out of scope
    assert "advance" not in messages


def test_persist_rule_passes_on_good_fixture():
    # journaled mutations, a suppressed replay, and an LRU move_to_end all
    # stay silent
    findings = run_fixture("persist_good")
    assert fired(findings) == set()
    assert any(f.rule == "PER001" and f.suppressed for f in findings)


# --------------------------------------------------------------------------- #
# observability drift
# --------------------------------------------------------------------------- #
def test_obs_rules_fire_on_bad_fixture():
    rules = fired(run_fixture("obs_bad"))
    assert {"OBS001", "OBS002", "OBS003"} <= rules


def test_obs_rules_pass_on_good_fixture():
    assert fired(run_fixture("obs_good")) == set()


def test_obs001_names_the_rogue_metric():
    findings = [
        f for f in run_fixture("obs_bad", only=["OBS001"]) if not f.suppressed
    ]
    assert len(findings) == 1
    assert "'demo_rogue_total'" in findings[0].message
    assert findings[0].path.endswith("app.py")


def test_obs002_points_at_the_declaration_line():
    findings = [
        f for f in run_fixture("obs_bad", only=["OBS002"]) if not f.suppressed
    ]
    assert len(findings) == 1
    assert "'demo_unused_total'" in findings[0].message
    assert findings[0].path.endswith("obs/metrics.py")
    assert findings[0].line > 1  # the key's line, not the file top


def test_obs003_exempts_the_trace_module():
    findings = [
        f for f in run_fixture("obs_bad", only=["OBS003"]) if not f.suppressed
    ]
    assert len(findings) == 1
    assert findings[0].path.endswith("app.py")
    # the sanctioned call inside obs/trace.py stays silent
    assert fired(run_fixture("obs_good", only=["OBS003"])) == set()


# --------------------------------------------------------------------------- #
# suppressions
# --------------------------------------------------------------------------- #
def test_suppression_round_trip():
    findings = run_fixture("suppressed")
    suppressed = [f for f in findings if f.suppressed and f.rule == "LCK002"]
    assert len(suppressed) == 2  # both puts are silenced
    assert any("never filled" in f.justification for f in suppressed)
    rules = fired(findings)
    assert "LCK002" not in rules
    assert "SUP001" in rules  # the bare suppression lacks a justification
    assert "SUP002" in rules  # the trailing suppression matches nothing


def test_suppression_hygiene_rules_skip_filtered_runs():
    # under --rule filtering a suppression for an unselected rule must not
    # be reported as stale
    rules = fired(run_fixture("suppressed", only=["LCK001"]))
    assert rules == set()


def test_rule_filter_restricts_output():
    findings = run_fixture("lock_bad", only=["LCK002"])
    assert fired(findings) == {"LCK002"}
