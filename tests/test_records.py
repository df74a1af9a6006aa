"""The memory layout of civex's records, and what copying them keeps.

A run holds a verdict, a certificate and a score record per (method,
instance) pair and several records per instance, so every dataclass is
declared with ``slots=True`` and no instance carries a ``__dict__``.  A
verdict whose every field is fixed is one object that every call returns.
Copying or unpickling a record skips its constructor, and the gate must
still fail closed: an action frame holding a wrongly typed field is refused
at rule 1, and a certificate and the frame it certifies still replay.
"""

import copy
import importlib
import json
import pickle
import pkgutil
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import civex
from civex.baselines import ALWAYS_ABSTAIN, CIVEX, ORACLE_SCM, build_context, make_provider
from civex.estimation import adjusted_effect
from civex.frames import Frame
from civex.runner import REGENERATING_SWEEPS, SweepRow
from civex.scm import MODERATE, sample_instance
from civex.verifier import (
    Decision,
    VerifierConfig,
    certificate_to_json_dict,
    make_view,
    triage,
    verify_certificate,
)

from oracles import unchecked

CFG = VerifierConfig()


def _civex_dataclasses() -> set[type]:
    found = set()
    for info in pkgutil.iter_modules(civex.__path__):
        module = importlib.import_module(f"civex.{info.name}")
        found.update(obj for obj in vars(module).values()
                     if isinstance(obj, type) and is_dataclass(obj)
                     and obj.__module__ == module.__name__)
    return found


def _records(*roots) -> dict[type, object]:
    """One dataclass instance of each type reachable from ``roots`` through
    record fields and containers."""
    found: dict[type, object] = {}
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if is_dataclass(obj) and not isinstance(obj, type):
            found.setdefault(type(obj), obj)
            stack.extend(getattr(obj, f.name) for f in fields(obj))
        elif isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
    return found


class TestLayout:
    def test_every_dataclass_is_slotted(self):
        classes = _civex_dataclasses()
        assert len(classes) >= 24
        for cls in classes:
            assert "__slots__" in vars(cls), cls
            assert cls.__dictoffset__ == 0, cls  # no instance dictionary

    def test_records_of_a_run_have_no_instance_dict(self, small_run):
        inst = small_run.instances[0]
        summary = next(iter(small_run.summaries.values()))
        records = _records(small_run, make_view(inst), build_context(small_run.instances),
                           SweepRow({"strength": 1.0}, summary), REGENERATING_SWEEPS)
        assert set(records) == _civex_dataclasses()
        for cls, record in records.items():
            assert not hasattr(record, "__dict__"), cls
            with pytest.raises((AttributeError, TypeError)):
                object.__setattr__(record, "note", 1)

    def test_frame_caches_stay_out_of_equality_hash_and_repr(self):
        data = np.random.default_rng(0).normal(size=(40, 2))
        data[:, 0] = np.arange(40) % 2
        hashed = Frame(("T", "Y"), data)
        hashed.sha256()
        adjusted_effect(hashed, [])
        plain = Frame(("T", "Y"), data)
        assert hashed._sha256 is not None and hashed._fits
        assert plain._sha256 is None and plain._fits is None
        assert hashed == plain
        assert hash(hashed) == hash(plain)
        assert repr(hashed) == repr(plain)
        assert "_sha256" not in repr(hashed) and "_fits" not in repr(hashed)
        parsed = Frame.from_canonical_bytes(hashed.canonical_bytes())
        assert parsed._sha256 is None and parsed._fits is None
        assert parsed == hashed


class TestSharedVerdicts:
    def test_fixed_answer_verdicts_are_one_object(self, small_run):
        instances = small_run.instances
        ctx = build_context(instances)
        oracle = make_provider(ORACLE_SCM, ctx, CFG)
        abstain = make_provider(ALWAYS_ABSTAIN, ctx, CFG)
        safe = [make_view(i) for i in instances if i.spec.safe][:2]
        harmful = [make_view(i) for i in instances if not i.spec.safe][:2]
        for a, b in (safe, harmful):
            assert oracle(a) is oracle(b)
            assert abstain(a) is abstain(b)
        assert oracle(safe[0]).decision is Decision.EXECUTE
        assert oracle(harmful[0]).decision is Decision.REJECT
        assert abstain(safe[0]).decision is Decision.ABSTAIN

    def test_rule_four_experiment_is_one_object(self, small_run):
        civex_gate = make_provider(CIVEX, build_context(small_run.instances), CFG)
        experiments = [v for v in map(civex_gate, map(make_view, small_run.instances))
                       if v.decision is Decision.EXPERIMENT]
        assert len(experiments) >= 2
        assert all(v is experiments[0] for v in experiments)


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj))


class TestCopies:
    def test_unpickled_malformed_action_frame_is_rejected_under_rule_one(self):
        inst = sample_instance("db_index_operation", MODERATE, 8, seed=42)
        assert triage(inst.frame, [inst.graph], inst.observational, CFG).decision \
            is Decision.EXECUTE
        frame = _pickled(unchecked(inst.frame, cost="x"))
        assert frame.cost == "x"
        v = triage(frame, [inst.graph], inst.observational, CFG)
        assert (v.decision, v.rule_fired, v.certificate) == (Decision.REJECT, 1, None)
        assert v.reason == "malformed action frame: cost must be a finite number >= 0, got 'x'"

    @pytest.mark.parametrize("duplicate", [_pickled, copy.copy], ids=["pickle", "copy"])
    def test_certificate_and_its_frame_round_trip(self, small_run, duplicate):
        record = next(r for r in small_run.records
                      if r.result.terminal.certificate is not None)
        inst = next(i for i in small_run.instances if i.id == record.instance_id)
        result = record.result
        cert = result.terminal.certificate
        data = inst.experimental if len(result.trace) == 2 else inst.observational
        cert2, data2 = duplicate(cert), duplicate(data)
        # The JSON writes each float by ``repr``, so equal text is equal bits.
        assert cert2 == cert
        assert (json.dumps(certificate_to_json_dict(cert2), sort_keys=True)
                == json.dumps(certificate_to_json_dict(cert), sort_keys=True))
        assert data2.columns == data.columns
        assert data2.data.tobytes() == data.data.tobytes()
        # The copy is rebuilt by the constructor: read-only, its digest recomputed.
        assert not data2.data.flags.writeable
        assert data2.sha256() == data.sha256() == cert.provenance
        assert verify_certificate(cert2, data2.canonical_bytes()) == []
