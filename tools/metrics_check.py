#!/usr/bin/env python3
"""Validator for Prometheus text-format scrapes from the /metrics endpoint.

Checks that a scrape is structurally sound, not just greppable:

  * text-format syntax: every non-comment line is `name{labels} value` with a
    legal metric name, balanced label braces, quoted label values, and a
    numeric value;
  * every sample belongs to a family announced by `# HELP` + `# TYPE` lines
    (in that order, once per family), and the naming lint holds: every family
    name starts with the expected prefix ("pfs_" by default);
  * histogram hygiene: per series, `_bucket` cumulative counts are
    non-decreasing with increasing `le`, the mandatory `le="+Inf"` bucket is
    present, and `_sum`/`_count` exist with `_count` equal to the +Inf bucket;
  * with a second scrape file, counter monotonicity: no counter series moves
    backwards between the first and second scrape;
  * with --statz FILE (a saved /statz body), one name per component: every
    `volume` label value names a `volume.<v>` stat source and every `disk`
    label value a `driver.<d>` source, so /metrics and /statz join on the
    same key.

Usage:
  python3 tools/metrics_check.py scrape1.txt [scrape2.txt] [--prefix pfs]
                                 [--statz statz.json]
  python3 tools/metrics_check.py --self-test

Exit status: 0 = valid, 1 = any violation (all violations are listed).
"""

import argparse
import json
import math
import re
import sys

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
LINE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)(\s+\S+)?$")

HIST_SUFFIXES = ("_bucket", "_sum", "_count")

# Component labels and the /statz source-name prefix each one must join.
STATZ_SOURCES = {"volume": "volume.", "disk": "driver."}


def parse_value(text):
    if text in ("+Inf", "Inf"):
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return float(text)
    except ValueError:
        return None


def base_family(name, types):
    """The family a sample line belongs to: histogram samples use the family
    name plus a _bucket/_sum/_count suffix."""
    for suffix in HIST_SUFFIXES:
        if name.endswith(suffix) and types.get(name[: -len(suffix)]) == "histogram":
            return name[: -len(suffix)]
    return name


def parse_scrape(text, label):
    """Returns (families, samples, errors): families maps name -> type,
    samples maps (metric name, label string) -> value in file order."""
    errors = []
    helps = set()
    types = {}
    samples = {}
    order = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        where = "%s:%d" % (label, lineno)
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                continue  # free-form comment: legal, ignored
            name = parts[2]
            if not NAME_RE.match(name):
                errors.append("%s: bad metric name %r in %s" % (where, name, parts[1]))
                continue
            if parts[1] == "HELP":
                if name in helps:
                    errors.append("%s: duplicate # HELP for %s" % (where, name))
                helps.add(name)
            else:
                if name in types:
                    errors.append("%s: duplicate # TYPE for %s" % (where, name))
                if name not in helps:
                    errors.append("%s: # TYPE %s precedes its # HELP" % (where, name))
                if len(parts) < 4 or parts[3] not in ("counter", "gauge", "histogram",
                                                      "summary", "untyped"):
                    errors.append("%s: # TYPE %s: unknown type" % (where, name))
                    continue
                types[name] = parts[3]
            continue
        m = LINE_RE.match(line)
        if m is None:
            errors.append("%s: unparseable sample line %r" % (where, raw))
            continue
        name, labels = m.group(1), m.group(3)
        if labels:
            stripped = LABEL_RE.sub("", labels).replace(",", "").strip()
            if stripped:
                errors.append("%s: malformed labels %r" % (where, labels))
                continue
        value = parse_value(m.group(4))
        if value is None:
            errors.append("%s: non-numeric value %r" % (where, m.group(4)))
            continue
        family = base_family(name, types)
        if family not in types:
            errors.append("%s: sample %s has no preceding # TYPE" % (where, name))
        key = (name, labels or "")
        if key in samples:
            errors.append("%s: duplicate series %s{%s}" % (where, name, labels or ""))
        samples[key] = value
        order.append(key)
    return types, samples, order, errors


def check_prefix(types, prefix, label):
    want = prefix + "_"
    return ["%s: family %s does not start with %r" % (label, name, want)
            for name in sorted(types) if not name.startswith(want)]


def check_histograms(types, samples, order, label):
    """Bucket counts must be cumulative (non-decreasing in le), +Inf must be
    present, and _count must equal the +Inf bucket."""
    errors = []
    series = {}  # (family, labels-without-le) -> [(le, value)]
    for (name, labels) in order:
        if not name.endswith("_bucket"):
            continue
        family = name[: -len("_bucket")]
        if types.get(family) != "histogram":
            continue
        le = None
        rest = []
        for lm in LABEL_RE.finditer(labels):
            if lm.group(1) == "le":
                le = parse_value(lm.group(2))
            else:
                rest.append(lm.group(0))
        if le is None:
            errors.append("%s: %s{%s}: bucket without a numeric le label"
                          % (label, name, labels))
            continue
        series.setdefault((family, ",".join(rest)), []).append((le, samples[(name, labels)]))
    for (family, rest), buckets in sorted(series.items()):
        where = "%s: %s{%s}" % (label, family, rest)
        les = [le for le, _ in buckets]
        if sorted(les) != les:
            errors.append("%s: bucket le values out of order" % where)
        prev = -1.0
        for le, v in sorted(buckets):
            if v < prev:
                errors.append("%s: cumulative bucket count decreases at le=%g (%g < %g)"
                              % (where, le, v, prev))
            prev = v
        if not any(math.isinf(le) for le, _ in buckets):
            errors.append('%s: missing le="+Inf" bucket' % where)
            continue
        inf_count = max(v for le, v in buckets if math.isinf(le))
        for suffix in ("_sum", "_count"):
            if (family + suffix, rest) not in samples:
                errors.append("%s: missing %s%s" % (where, family, suffix))
        count = samples.get((family + "_count", rest))
        if count is not None and count != inf_count:
            errors.append("%s: _count %g != +Inf bucket %g" % (where, count, inf_count))
    return errors


def check_monotonic(first, second):
    """Counter series must not move backwards between two scrapes of the same
    live registry. Series present in only one scrape are fine (a component
    may register lazily), as long as shared ones never decrease."""
    types1, samples1, _, _ = first
    types2, samples2, order2, _ = second
    errors = []
    for key in order2:
        name, labels = key
        family = base_family(name, types2)
        kind = types2.get(family)
        counter_like = kind == "counter" or (kind == "histogram" and
                                             not name.endswith("_sum"))
        if not counter_like or key not in samples1:
            continue
        if samples2[key] < samples1[key]:
            errors.append("counter %s{%s} went backwards across scrapes: %g -> %g"
                          % (name, labels, samples1[key], samples2[key]))
    return errors


def check_statz(samples, statz, label):
    """Every component label value must name a stat source in the /statz
    body: volume="v" needs "volume.v", disk="d" needs "driver.d"."""
    errors = []
    missing = set()
    for (_, labels) in samples:
        for lm in LABEL_RE.finditer(labels):
            prefix = STATZ_SOURCES.get(lm.group(1))
            if prefix is not None and prefix + lm.group(2) not in statz:
                missing.add((lm.group(1), lm.group(2), prefix + lm.group(2)))
    for key, value, source in sorted(missing):
        errors.append('%s: %s="%s" names no /statz source %s' % (label, key, value, source))
    return errors


GOOD_SCRAPE_1 = """\
# HELP pfs_cache_hits_total Buffer cache hits.
# TYPE pfs_cache_hits_total counter
pfs_cache_hits_total{shard="0"} 10
pfs_cache_hits_total{shard="1"} 4
# HELP pfs_disk_queue_depth Requests waiting in the driver queue.
# TYPE pfs_disk_queue_depth gauge
pfs_disk_queue_depth{disk="d0"} 3
# HELP pfs_client_op_seconds Client op latency.
# TYPE pfs_client_op_seconds histogram
pfs_client_op_seconds_bucket{op="read",le="0.001"} 5
pfs_client_op_seconds_bucket{op="read",le="0.004"} 9
pfs_client_op_seconds_bucket{op="read",le="+Inf"} 9
pfs_client_op_seconds_sum{op="read"} 0.0123
pfs_client_op_seconds_count{op="read"} 9
"""

GOOD_SCRAPE_2 = GOOD_SCRAPE_1.replace(
    'pfs_cache_hits_total{shard="0"} 10', 'pfs_cache_hits_total{shard="0"} 25')

# A /statz body and scrapes that do (and do not) join it on component names.
# "disk.d2" is the disk model's source: a disk label joins the driver's.
GOOD_STATZ = {"driver.d0": {}, "driver.d1": {}, "volume.fs0": {}, "disk.d2": {}}

STATZ_SCRAPE = """\
# HELP pfs_volume_requests_total Requests completed
# TYPE pfs_volume_requests_total counter
pfs_volume_requests_total{volume="fs0"} 7
# HELP pfs_disk_reads_total Read requests submitted
# TYPE pfs_disk_reads_total counter
pfs_disk_reads_total{disk="d0"} 3
pfs_disk_reads_total{disk="d1"} 4
"""

BAD_STATZ_SCRAPE = STATZ_SCRAPE + (
    'pfs_volume_requests_total{volume="fs0.m0"} 7\n'
    'pfs_disk_reads_total{disk="d2"} 1\n')

BAD_SCRAPES = [
    # Sample with no # TYPE announcement.
    ("orphan sample", "pfs_lonely_total 3\n", "no preceding # TYPE"),
    # Family outside the prefix namespace.
    ("bad prefix",
     "# HELP other_thing_total x\n# TYPE other_thing_total counter\nother_thing_total 1\n",
     "does not start with"),
    # Non-numeric value.
    ("bad value",
     "# HELP pfs_x_total x\n# TYPE pfs_x_total counter\npfs_x_total nope\n",
     "non-numeric value"),
    # Cumulative bucket counts must not decrease.
    ("non-cumulative buckets",
     "# HELP pfs_h_seconds x\n# TYPE pfs_h_seconds histogram\n"
     'pfs_h_seconds_bucket{le="1"} 5\npfs_h_seconds_bucket{le="2"} 3\n'
     'pfs_h_seconds_bucket{le="+Inf"} 5\npfs_h_seconds_sum 1\npfs_h_seconds_count 5\n',
     "cumulative bucket count decreases"),
    # +Inf is mandatory.
    ("missing +Inf",
     "# HELP pfs_h_seconds x\n# TYPE pfs_h_seconds histogram\n"
     'pfs_h_seconds_bucket{le="1"} 5\npfs_h_seconds_sum 1\npfs_h_seconds_count 5\n',
     'missing le="\\+Inf"'),
    # _count must equal the +Inf bucket.
    ("count mismatch",
     "# HELP pfs_h_seconds x\n# TYPE pfs_h_seconds histogram\n"
     'pfs_h_seconds_bucket{le="+Inf"} 5\npfs_h_seconds_sum 1\npfs_h_seconds_count 4\n',
     "_count 4 != \\+Inf bucket 5"),
    # Same series twice in one scrape.
    ("duplicate series",
     "# HELP pfs_x_total x\n# TYPE pfs_x_total counter\npfs_x_total 1\npfs_x_total 2\n",
     "duplicate series"),
    # Garbage line.
    ("garbage line",
     "# HELP pfs_x_total x\n# TYPE pfs_x_total counter\n{pfs_x_total} = 1\n",
     "unparseable sample line"),
]


def check_file(text, label, prefix):
    parsed = parse_scrape(text, label)
    types, samples, order, errors = parsed
    errors = list(errors)
    errors += check_prefix(types, prefix, label)
    errors += check_histograms(types, samples, order, label)
    return parsed, errors


def self_test():
    failures = []
    _, errors = check_file(GOOD_SCRAPE_1, "good1", "pfs")
    if errors:
        failures.append("good scrape flagged: %s" % errors)
    first, errors1 = check_file(GOOD_SCRAPE_1, "s1", "pfs")
    second, errors2 = check_file(GOOD_SCRAPE_2, "s2", "pfs")
    if errors1 or errors2 or check_monotonic(first, second):
        failures.append("monotonic pair flagged: %s" % (errors1 + errors2))
    if not check_monotonic(second, first):  # reversed: counters go backwards
        failures.append("regressing counters not flagged")
    for name, text, want in BAD_SCRAPES:
        _, errors = check_file(text, name, "pfs")
        if not any(re.search(want, e) for e in errors):
            failures.append("%s: expected /%s/, got %s" % (name, want, errors))
    (_, samples, _, _), errors = check_file(STATZ_SCRAPE, "statz-good", "pfs")
    errors += check_statz(samples, GOOD_STATZ, "statz-good")
    if errors:
        failures.append("scrape joining /statz flagged: %s" % errors)
    (_, samples, _, _), _ = check_file(BAD_STATZ_SCRAPE, "statz-bad", "pfs")
    errors = check_statz(samples, GOOD_STATZ, "statz-bad")
    for want in ('volume="fs0.m0" names no /statz source volume.fs0.m0',
                 'disk="d2" names no /statz source driver.d2'):
        if not any(want in e for e in errors):
            failures.append("statz-bad: expected %r, got %s" % (want, errors))
    if len(errors) != 2:
        failures.append("statz-bad: expected 2 violations, got %s" % errors)
    for f in failures:
        print("FAIL:", f, file=sys.stderr)
    if not failures:
        print("self-test: %d bad fixtures + 2 good fixtures + 2 /statz fixtures: ok"
              % len(BAD_SCRAPES))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scrapes", nargs="*", metavar="SCRAPE",
                        help="one scrape to validate, or two to also check "
                             "counter monotonicity between them")
    parser.add_argument("--prefix", default="pfs",
                        help="required metric-name prefix (default: pfs)")
    parser.add_argument("--statz", metavar="FILE",
                        help="a saved /statz body: every volume and disk label "
                             "must name one of its stat sources")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixtures and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not 1 <= len(args.scrapes) <= 2:
        parser.error("expected one or two scrape files (or --self-test)")

    statz = None
    if args.statz:
        try:
            with open(args.statz) as f:
                statz = json.load(f)
        except (OSError, ValueError) as e:
            print("FAIL: %s: %s" % (args.statz, e), file=sys.stderr)
            return 1

    errors = []
    parsed = []
    for path in args.scrapes:
        try:
            with open(path) as f:
                text = f.read()
        except OSError as e:
            print("FAIL: %s: %s" % (path, e), file=sys.stderr)
            return 1
        result, file_errors = check_file(text, path, args.prefix)
        parsed.append(result)
        errors += file_errors
        types, samples, _, _ = result
        if statz is not None:
            errors += check_statz(samples, statz, path)
        print("%s: %d famil%s, %d series" % (path, len(types),
                                             "y" if len(types) == 1 else "ies",
                                             len(samples)))
    if len(parsed) == 2 and not errors:
        errors += check_monotonic(parsed[0], parsed[1])

    if errors:
        for err in errors[:50]:
            print("FAIL:", err, file=sys.stderr)
        if len(errors) > 50:
            print("... and %d more" % (len(errors) - 50), file=sys.stderr)
        return 1
    print("valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
