#!/usr/bin/env python3
"""Validator for Chrome trace_event files exported by the obs/ subsystem.

Checks that an exported trace is structurally sound, not just parseable:

  * the document is one JSON object with a non-empty "traceEvents" array;
  * every event is a complete ("ph":"X") span with numeric ts/dur >= 0, an
    integer tid, a known stage name, and a positive args.trace_id;
  * trace-id hygiene: every span's trace id belongs to some client root
    (a "client.op" span) — background daemons must not leak spans;
  * per-tid nesting: within one scheduler thread, spans form a proper stack
    (a span that starts inside another ends inside it too) — clock
    monotonicity and correct begin/end pairing fall out of this.

Usage:
  python3 tools/trace_check.py trace.json [--require STAGE]...
  python3 tools/trace_check.py --samples trace-samples.json
  python3 tools/trace_check.py --self-test

Each --require STAGE (repeatable) additionally demands at least one span of
that stage, e.g. --require client.op --require volume.fragment makes sure a
striped scenario actually exercised the fan-out path.

--samples checks the stats sampler's NDJSON stream written next to a trace
instead: at least one line, every line one JSON object with a numeric t_ms,
a "stats" object and a "metrics" object, and t_ms never decreasing.

Exit status: 0 = valid, 1 = any violation (all violations are listed).
"""

import argparse
import json
import sys

KNOWN_STAGES = frozenset([
    "client.op",
    "cache.fill",
    "volume.request",
    "volume.fragment",
    "driver.queue",
    "driver.io",
    "driver.batch",
])

# ts/dur are microseconds with nanosecond resolution (three decimals); one
# picosecond of slack absorbs float formatting, nothing more.
EPS = 1e-6


def check_events(events):
    errors = []
    for i, ev in enumerate(events):
        where = "event %d" % i
        if ev.get("ph") != "X":
            errors.append("%s: ph=%r, want complete spans ('X')" % (where, ev.get("ph")))
            continue
        name = ev.get("name")
        if name not in KNOWN_STAGES:
            errors.append("%s: unknown stage name %r" % (where, name))
        for key in ("ts", "dur"):
            v = ev.get(key)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                errors.append("%s (%s): %s=%r, want a number >= 0" % (where, name, key, v))
        if not isinstance(ev.get("tid"), int):
            errors.append("%s (%s): tid=%r, want an integer" % (where, name, ev.get("tid")))
        trace_id = ev.get("args", {}).get("trace_id")
        if not isinstance(trace_id, int) or trace_id <= 0:
            errors.append("%s (%s): args.trace_id=%r, want a positive integer"
                          % (where, name, trace_id))
    return errors


def check_trace_ids(events):
    roots = set(ev["args"]["trace_id"] for ev in events if ev["name"] == "client.op")
    if not roots:
        return ["no client.op spans: every trace needs client roots"]
    errors = []
    for i, ev in enumerate(events):
        trace_id = ev["args"]["trace_id"]
        if trace_id not in roots:
            errors.append("event %d (%s): trace id %d has no client.op root "
                          "(leaked from a background daemon?)" % (i, ev["name"], trace_id))
    return errors


def check_nesting(events):
    """Within each tid, spans must form a stack: sorted by (start, -duration)
    so enclosing spans come first, every span must end within the open span
    it started inside."""
    errors = []
    by_tid = {}
    for i, ev in enumerate(events):
        by_tid.setdefault(ev["tid"], []).append((ev["ts"], -ev["dur"], i, ev))
    for tid, rows in sorted(by_tid.items()):
        rows.sort(key=lambda r: (r[0], r[1]))
        stack = []  # (end, index, name) of open spans
        for ts, neg_dur, i, ev in rows:
            end = ts - neg_dur
            while stack and stack[-1][0] <= ts + EPS:
                stack.pop()
            if stack and end > stack[-1][0] + EPS:
                errors.append(
                    "tid %d: event %d (%s, %.3f..%.3f) overlaps event %d (%s, ends %.3f) "
                    "without nesting" % (tid, i, ev["name"], ts, end,
                                         stack[-1][1], stack[-1][2], stack[-1][0]))
                continue  # don't push the malformed span
            stack.append((end, i, ev["name"]))
    return errors


def check_required(events, required):
    counts = {}
    for ev in events:
        counts[ev["name"]] = counts.get(ev["name"], 0) + 1
    errors = []
    for stage in required:
        if stage not in KNOWN_STAGES:
            errors.append("--require %s: not a known stage (%s)"
                          % (stage, ", ".join(sorted(KNOWN_STAGES))))
        elif counts.get(stage, 0) == 0:
            errors.append("required stage %s: no spans recorded" % stage)
    return errors, counts


def check_samples(lines):
    errors = []
    last_t = None
    for n, line in enumerate(lines, 1):
        try:
            sample = json.loads(line)
        except ValueError as e:
            errors.append("line %d: %s" % (n, e))
            continue
        if not isinstance(sample, dict):
            errors.append("line %d: not a JSON object" % n)
            continue
        t = sample.get("t_ms")
        if not isinstance(t, (int, float)) or isinstance(t, bool):
            errors.append("line %d: t_ms=%r, want a number" % (n, t))
        else:
            if last_t is not None and t < last_t:
                errors.append("line %d: t_ms %r is before the previous line's %r"
                              % (n, t, last_t))
            last_t = t
        for key in ("stats", "metrics"):
            if not isinstance(sample.get(key), dict):
                errors.append("line %d: %s missing or not an object" % (n, key))
    if not lines:
        errors.append("no samples")
    return errors


def self_test():
    good = '{"t_ms":0.000,"stats":{"cache":{}},"metrics":{}}'
    cases = [
        ([good, good.replace("0.000", "5.000")], 0),
        ([good.replace("0.000", "5.000"), good], 1),   # time runs backwards
        (['{"t_ms":1,"stats":{}}'], 1),                 # no metrics
        (['{"t_ms":"1","stats":{},"metrics":{}}'], 1),  # t_ms not a number
        ([good, '{"t_ms":1,'], 1),                      # torn line
        ([], 1),
    ]
    failed = [(lines, want) for lines, want in cases
              if len(check_samples(lines)) != want]
    if failed:
        print("trace_check self-test FAILED: %r" % failed)
        return 1
    print("trace_check self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", nargs="?",
                        help="Chrome trace_event JSON file (with --samples: an NDJSON "
                             "sample stream)")
    parser.add_argument("--require", action="append", default=[], metavar="STAGE",
                        help="demand at least one span of STAGE (repeatable)")
    parser.add_argument("--samples", action="store_true",
                        help="check a stats sample stream instead of a trace")
    parser.add_argument("--self-test", action="store_true",
                        help="check the sample checks against fixed cases")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.trace is None:
        parser.error("a file to check is required")

    if args.samples:
        try:
            with open(args.trace) as f:
                lines = f.read().splitlines()
        except OSError as e:
            print("FAIL: %s: %s" % (args.trace, e), file=sys.stderr)
            return 1
        errors = check_samples(lines)
        for err in errors[:50]:
            print("FAIL:", err, file=sys.stderr)
        if errors:
            return 1
        print("%s: %d sample(s): valid" % (args.trace, len(lines)))
        return 0

    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print("FAIL: %s: %s" % (args.trace, e), file=sys.stderr)
        return 1

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        print("FAIL: %s: traceEvents missing or empty" % args.trace, file=sys.stderr)
        return 1

    errors = check_events(events)
    if not errors:
        # Id and nesting checks index into fields the structural pass vouched
        # for; skip them when the events themselves are malformed.
        errors += check_trace_ids(events)
        errors += check_nesting(events)
    required_errors, counts = check_required(events, args.require)
    errors += required_errors

    for stage in sorted(counts):
        print("%-16s %6d span(s)" % (stage, counts[stage]))
    if errors:
        for err in errors[:50]:
            print("FAIL:", err, file=sys.stderr)
        if len(errors) > 50:
            print("... and %d more" % (len(errors) - 50), file=sys.stderr)
        return 1
    print("%s: %d event(s) across %d thread(s): valid"
          % (args.trace, len(events), len(set(ev["tid"] for ev in events))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
