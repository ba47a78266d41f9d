#!/usr/bin/env python3
"""Field-level diff of two deterministic campaign payloads.

Usage:
  reproduce/payload_diff.py [--name NAME] OLD.json NEW.json

A payload (CampaignReport::to_json(false), as in reproduce/*/golden.json)
is one line of JSON, so a textual diff shows the whole line twice.  This
prints one line per changed value instead, keyed experiment > entry >
sweep point > rep > field, with the old and the new value:

  e3_uniform_shatter > mesh-16-bisection-05 > rep 0 > iterations: 23 -> 21

Entries are matched by name and runs by position.  Numbers are compared
as the text the payload holds, so a value moves only if its bytes do.
Exit status: 0 when no field moved, 1 when one did, 2 on unreadable input.
"""

import argparse
import json
import sys


class Number(str):
    """A JSON number, kept as its payload text."""


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f, parse_float=Number, parse_int=Number)


MISSING = object()  # a field one side does not have


def show(value):
    if value is MISSING:
        return "(absent)"
    if isinstance(value, Number):
        return str(value)
    return json.dumps(value)


def leaves(value, path, out):
    """Flatten `value` into {field path: leaf}; lists index as name[i]."""
    if isinstance(value, dict):
        for key, item in value.items():
            leaves(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            leaves(item, f"{path}[{i}]", out)
    else:
        out[path] = value
    return out


def diff_fields(old, new, prefix, changes):
    """Append (prefix > field, old, new) for every leaf that differs."""
    a = leaves(old, "", {}) if old is not MISSING else {}
    b = leaves(new, "", {}) if new is not MISSING else {}
    for field in list(a) + [f for f in b if f not in a]:
        va, vb = a.get(field, MISSING), b.get(field, MISSING)
        if type(va) is not type(vb) or va != vb:
            changes.append((" > ".join(prefix + [field]) if field else " > ".join(prefix), va, vb))


def run_labels(entry):
    """One label per run: its sweep point (if the entry sweeps) and rep."""
    runs = entry.get("runs", [])
    values = entry.get("sweep_values")
    param = entry.get("sweep_param")
    labels = []
    for i, run in enumerate(runs):
        rep = run.get("rep", i) if isinstance(run, dict) else i
        label = [f"rep {rep}"]
        if param is not None and isinstance(values, list) and len(values) == len(runs):
            label.insert(0, f"{param}={values[i]}")
        labels.append(label)
    return labels


def diff_entry(old, new, prefix, changes):
    rest_old = {k: v for k, v in old.items() if k != "runs"} if old is not MISSING else MISSING
    rest_new = {k: v for k, v in new.items() if k != "runs"} if new is not MISSING else MISSING
    diff_fields(rest_old, rest_new, prefix, changes)
    runs_old = old.get("runs", []) if old is not MISSING else []
    runs_new = new.get("runs", []) if new is not MISSING else []
    labels_old = run_labels(old) if old is not MISSING else []
    labels_new = run_labels(new) if new is not MISSING else []
    for i in range(max(len(runs_old), len(runs_new))):
        label = labels_new[i] if i < len(labels_new) else labels_old[i]
        diff_fields(runs_old[i] if i < len(runs_old) else MISSING,
                    runs_new[i] if i < len(runs_new) else MISSING, prefix + label, changes)


def diff_payloads(old, new, name):
    changes = []
    top_old = {k: v for k, v in old.items() if k != "scenarios"}
    top_new = {k: v for k, v in new.items() if k != "scenarios"}
    diff_fields(top_old, top_new, [name], changes)
    entries_old = {e.get("name", str(i)): e for i, e in enumerate(old.get("scenarios", []))}
    entries_new = {e.get("name", str(i)): e for i, e in enumerate(new.get("scenarios", []))}
    for entry in list(entries_old) + [e for e in entries_new if e not in entries_old]:
        diff_entry(entries_old.get(entry, MISSING), entries_new.get(entry, MISSING),
                   [name, entry], changes)
    return changes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--name", help="experiment name (default: the payload's name)")
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args()
    try:
        old, new = load(args.old), load(args.new)
    except (OSError, ValueError) as e:
        print(f"payload_diff: {e}", file=sys.stderr)
        return 2
    name = args.name or str(new.get("name", "payload"))
    changes = diff_payloads(old, new, name)
    note = ""
    if not changes:
        with open(args.old, "rb") as a, open(args.new, "rb") as b:
            if a.read() != b.read():
                note = " (the bytes differ only in formatting or key order)"
    print(f"{name}: {len(changes)} field(s) moved{note}")
    for path, va, vb in changes:
        print(f"  {path}: {show(va)} -> {show(vb)}")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
