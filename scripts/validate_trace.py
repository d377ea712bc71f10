#!/usr/bin/env python3
"""Validate an ECC trace dump (JSON lines, one event per line).

Usage: validate_trace.py TRACE.jsonl [...]

Checks, per line: the line parses as a JSON object, `t_us` is a
non-negative integer, `ev` names a known event kind, and every field the
kind requires (see src/obs/trace.cc, EventToJson) is present with the
right type.  The file as a whole must contain at least one event.  Exits
non-zero on the first problem, printing file:line so CI logs point at the
offending event.
"""

import json
import sys

# Required fields beyond t_us/ev, per event kind.  Values are the expected
# JSON types.  Optional fields (node/key — omitted when they carry the
# "none" sentinel) are listed separately.
SCHEMAS = {
    "query_start": {"key": int},
    "query_end": {"key": int, "outcome": str, "latency_us": int},
    "split": {"node": int, "dst": int, "records": int, "bytes": int},
    "migration_phase": {"node": int, "dst": int, "step": int,
                        "migration": int},
    "eviction_sweep": {"requested": int, "erased": int},
    "contraction_merge": {"node": int, "absorber": int, "records": int},
    "node_alloc": {"node": int, "boot_wait_us": int},
    "node_dealloc": {"node": int},
    "node_crash": {"node": int, "dropped": int, "recoverable": int},
    "rpc_retry": {"node": int, "attempt": int},
    "rpc_failure": {"node": int, "attempts": int},
    "fault_injected": {"fault": str, "arg": int},
    "load_shed": {"reason": str},
    "breaker": {"from": str, "to": str},
    "stale_serve": {"source": str, "age_slices": int},
    "deadline_exceeded": {"overshoot_us": int},
    "node_suspected": {"node": int, "suspicion": int},
    "node_confirmed_dead": {"node": int, "missed": int},
    "rereplicate": {"recovered": int, "from_spill": int,
                    "unrecoverable": int},
    "scrub_repair": {"key": int, "kind": str},
    "front_hit": {"key": int},
    "front_invalidate": {"key": int, "reason": str},
    "policy_decision": {"decision": str, "b": int, "c": int},
    "chaos_fault": {"fault": str, "arg": int},
    "invariant_violation": {"kind": str},
    "invariant_check": {"checked": int, "violations": int,
                        "unrecoverable": int},
    "wal_append": {"node": int, "records": int, "bytes": int},
    "snapshot": {"node": int, "records": int, "bytes": int},
    "rejoin_delta": {"node": int, "owned": int, "transferred": int,
                     "recovered": int},
}

OPTIONAL = {"node": int, "key": int}

OUTCOMES = {"hit", "miss", "coalesced", "shed", "stale"}
FAULTS = {"drop_request", "drop_response", "delay", "migration_abort",
          "migration_crash_source", "migration_crash_dest", "brownout"}
SHED_REASONS = {"queue_full", "breaker_open", "dropped", "deadline"}
BREAKER_STATES = {"closed", "open", "half_open"}
STALE_SOURCES = {"replica", "spill"}
SCRUB_KINDS = {"missing_mirror", "conflict"}
FRONT_INVALIDATE_REASONS = {"version", "epoch", "capacity", "window"}
POLICY_DECISIONS = {"evict_override", "admit_deny", "contract", "prewarm"}
CHAOS_FAULTS = {"partition", "heal", "corrupt", "truncate", "reset",
                "delay", "throttle"}
INVARIANT_KINDS = {"lost_ack", "value_mismatch", "stale_serve", "divergence"}

# Sweep-and-migrate has six phase steps (fault::MigrationStep).
MAX_MIGRATION_STEP = 5


def fail(path, lineno, msg):
    print(f"{path}:{lineno}: {msg}", file=sys.stderr)
    sys.exit(1)


def check_line(path, lineno, line):
    try:
        event = json.loads(line)
    except json.JSONDecodeError as err:
        fail(path, lineno, f"not valid JSON: {err}")
    if not isinstance(event, dict):
        fail(path, lineno, "event is not a JSON object")

    t_us = event.get("t_us")
    if not isinstance(t_us, int) or isinstance(t_us, bool) or t_us < 0:
        fail(path, lineno, f"bad t_us: {t_us!r}")

    kind = event.get("ev")
    if kind not in SCHEMAS:
        fail(path, lineno, f"unknown event kind: {kind!r}")

    for field, ftype in SCHEMAS[kind].items():
        value = event.get(field)
        if not isinstance(value, ftype) or isinstance(value, bool):
            fail(path, lineno,
                 f"{kind}: field {field!r} missing or not {ftype.__name__}: "
                 f"{value!r}")

    for field, value in event.items():
        if field in ("t_us", "ev") or field in SCHEMAS[kind]:
            continue
        if field in OPTIONAL:
            if not isinstance(value, OPTIONAL[field]) or isinstance(
                    value, bool):
                fail(path, lineno, f"{kind}: bad optional {field!r}: "
                                   f"{value!r}")
            continue
        fail(path, lineno, f"{kind}: unexpected field {field!r}")

    if kind == "query_end" and event["outcome"] not in OUTCOMES:
        fail(path, lineno, f"bad outcome: {event['outcome']!r}")
    if kind == "fault_injected" and event["fault"] not in FAULTS:
        fail(path, lineno, f"bad fault code: {event['fault']!r}")
    if kind == "migration_phase" and not (
            0 <= event["step"] <= MAX_MIGRATION_STEP):
        fail(path, lineno, f"migration step out of range: {event['step']}")
    if kind == "query_end" and event["latency_us"] < 0:
        fail(path, lineno, f"negative latency: {event['latency_us']}")
    if kind == "load_shed" and event["reason"] not in SHED_REASONS:
        fail(path, lineno, f"bad shed reason: {event['reason']!r}")
    if kind == "breaker" and not (
            event["from"] in BREAKER_STATES
            and event["to"] in BREAKER_STATES
            and event["from"] != event["to"]):
        fail(path, lineno,
             f"bad breaker transition: {event['from']!r} -> {event['to']!r}")
    if kind == "stale_serve" and event["source"] not in STALE_SOURCES:
        fail(path, lineno, f"bad stale source: {event['source']!r}")
    if kind == "stale_serve" and event["age_slices"] < 0:
        fail(path, lineno, f"negative staleness: {event['age_slices']}")
    if kind == "deadline_exceeded" and event["overshoot_us"] < 0:
        fail(path, lineno, f"negative overshoot: {event['overshoot_us']}")
    if kind == "node_suspected" and event["suspicion"] < 1:
        fail(path, lineno, f"bad suspicion count: {event['suspicion']}")
    if kind == "node_confirmed_dead" and event["missed"] < 1:
        fail(path, lineno, f"bad missed-probe count: {event['missed']}")
    if kind == "rereplicate" and (
            event["recovered"] < 0 or event["from_spill"] < 0
            or event["unrecoverable"] < 0
            or event["from_spill"] > event["recovered"]):
        fail(path, lineno,
             f"inconsistent rereplicate counts: {event!r}")
    if kind == "scrub_repair" and event["kind"] not in SCRUB_KINDS:
        fail(path, lineno, f"bad scrub repair kind: {event['kind']!r}")
    if kind == "front_invalidate" and (
            event["reason"] not in FRONT_INVALIDATE_REASONS):
        fail(path, lineno,
             f"bad front invalidate reason: {event['reason']!r}")
    if kind == "chaos_fault" and event["fault"] not in CHAOS_FAULTS:
        fail(path, lineno, f"bad chaos fault: {event['fault']!r}")
    if kind == "invariant_violation" and event["kind"] not in INVARIANT_KINDS:
        fail(path, lineno, f"bad invariant kind: {event['kind']!r}")
    if kind == "invariant_check" and (
            event["checked"] < 0 or event["violations"] < 0
            or event["unrecoverable"] < 0
            or event["violations"] > event["checked"]):
        fail(path, lineno, f"inconsistent invariant_check counts: {event!r}")
    if kind == "wal_append" and (event["records"] < 1 or event["bytes"] < 1):
        fail(path, lineno, f"empty wal_append batch: {event!r}")
    if kind == "snapshot" and (event["records"] < 0 or event["bytes"] < 1):
        fail(path, lineno, f"inconsistent snapshot counts: {event!r}")
    if kind == "rejoin_delta" and (
            event["owned"] < 0 or event["recovered"] < 0
            or event["transferred"] < 0
            or event["transferred"] > event["owned"]):
        fail(path, lineno, f"inconsistent rejoin_delta counts: {event!r}")
    if kind == "policy_decision":
        if event["decision"] not in POLICY_DECISIONS:
            fail(path, lineno,
                 f"bad policy decision: {event['decision']!r}")
        if event["decision"] == "admit_deny" and "key" not in event:
            fail(path, lineno, "policy admit_deny without a key")
        if event["b"] < 0 or event["c"] < 0:
            fail(path, lineno, f"negative policy decision counts: {event!r}")


def validate(path):
    events = 0
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):  # comment line
                continue
            check_line(path, lineno, line)
            events += 1
    if events == 0:
        fail(path, 0, "no events in trace")
    print(f"{path}: {events} events OK")


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    for path in argv[1:]:
        validate(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
