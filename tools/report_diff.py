#!/usr/bin/env python3
"""report_diff: name the fields that moved between two ReportJson files.

A golden report (tests/golden/<name>.json) is compared byte for byte, which
says only that something moved. This lists every JSON leaf whose value
differs, one line each, as `path: golden -> run`. Paths join keys with `/`
(stat-source names contain dots) and index arrays as `[i]`; an empty object
or array counts as a leaf, and `<absent>` marks a path only one side has.
Numbers print as written in the file, so a formatting change shows too.

tests/golden/check_report.cmake runs it after a byte mismatch. The byte
comparison stays the pass/fail rule; this only explains a failure.

Usage:
  python3 tools/report_diff.py GOLDEN RUN
  python3 tools/report_diff.py --self-test

Exit status: 0 = no leaf differs, 1 = some leaf differs, 2 = unreadable input.
"""

import json
import sys

ABSENT = "<absent>"


class Number(str):
    """A JSON number kept as its source text."""


def load(path):
    with open(path) as f:
        return json.load(f, parse_float=Number, parse_int=Number)


def leaves(node, path="", out=None):
    """Maps each leaf path of `node` to its value."""
    out = {} if out is None else out
    if isinstance(node, dict) and node:
        for key, value in node.items():
            leaves(value, path + "/" + key if path else key, out)
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            leaves(value, "%s[%d]" % (path, i), out)
    else:
        out[path] = node
    return out


def show(value):
    if value is ABSENT or isinstance(value, Number):
        return str(value)
    return json.dumps(value)


def diff(golden, run):
    """Returns `path: golden -> run` lines, in the golden's key order, then
    paths only the run has."""
    a, b = leaves(golden), leaves(run)
    lines = []
    for path in list(a) + [p for p in b if p not in a]:
        old, new = a.get(path, ABSENT), b.get(path, ABSENT)
        if old != new or type(old) is not type(new):
            lines.append("%s: %s -> %s" % (path, show(old), show(new)))
    return lines


def self_test():
    golden = json.loads('{"driver.d0":{"ops":770,"latency_ms":{"p50":2.6214}},'
                        '"ffs.fs0":{},"list":[1,2],"name":"C-LOOK"}',
                        parse_float=Number, parse_int=Number)
    run = json.loads('{"driver.d0":{"ops":771,"latency_ms":{"p50":2.6214}},'
                     '"ffs.fs0":{"x":1.50},"list":[1],"name":"SSTF","new":true}',
                     parse_float=Number, parse_int=Number)
    expected = [
        "driver.d0/ops: 770 -> 771",
        "ffs.fs0: {} -> <absent>",
        "list[1]: 2 -> <absent>",
        'name: "C-LOOK" -> "SSTF"',
        "ffs.fs0/x: <absent> -> 1.50",
        "new: <absent> -> true",
    ]
    got = diff(golden, run)
    if got != expected or diff(golden, golden):
        print("report_diff self-test FAILED:\n  " + "\n  ".join(got))
        return 1
    print("report_diff self-test passed")
    return 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) != 2:
        print("usage: report_diff.py GOLDEN RUN | --self-test", file=sys.stderr)
        return 2
    try:
        golden, run = load(argv[0]), load(argv[1])
    except (OSError, ValueError) as e:
        print("report_diff: %s" % e, file=sys.stderr)
        return 2
    lines = diff(golden, run)
    for line in lines:
        print(line)
    if lines:
        print("%d field(s) differ, golden -> run" % len(lines))
    else:
        print("no leaf value differs (key order or layout only)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
