"""Command-line front end.

One verb per construction: validate, convert, tensor, sections,
nerve-complex, nerve, map, push, check, decompose, verify-certificate, laws.
All payloads are JSON; output goes to stdout unless -o is given.  Exit codes:
0 success, 1 validation failure, bad input or usage error, 2 contextual
verdict, 3 resource cap.  Each verb imports the modules it runs in its own
function, so a `ctx` process loads, or compiles from source, only those.
"""

import argparse
import json
import sys

from .errors import DomainError, PreconditionError, ResourceLimitError


def _load(path):
    with open(path) as handle:
        obj = json.load(handle)
    if not isinstance(obj, dict):
        raise DomainError("file %s does not hold a JSON object" % path)
    return obj


def _emit(obj, out):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def load_scenario(path):
    from .events import EventScenario, StandardScenario, event_presheaf
    obj = _load(path)
    kind = obj.get("kind")
    if kind == "event":
        return EventScenario.from_json(obj)
    if kind == "standard":
        return event_presheaf(StandardScenario.from_json(obj))
    if kind == "bundle":
        from .bundles import BundleScenario, to_event
        return to_event(BundleScenario.from_json(obj))
    raise DomainError("file %s does not hold a scenario (kind=%r)"
                      % (path, kind))


def load_model(path, scn):
    from .solve import EmpiricalModel
    obj = _load(path)
    if obj.get("kind") != "model":
        raise DomainError("file %s does not hold a model" % path)
    return EmpiricalModel.from_json(scn, obj)


def load_simplicial_distribution(path):
    """A distribution on a mapping space: "<degree>:<simplex>" keys mapping
    to objects of outcome weights, as SimplicialDistribution.to_json writes."""
    from .dist import Dist, rat
    from .sset import SimplicialDistribution
    tables = _load(path).get("distributions")
    if not isinstance(tables, dict) or \
            not all(isinstance(t, dict) for t in tables.values()):
        raise DomainError("file %s: distributions must map simplex keys to "
                          "objects of outcome weights" % path)
    table = {}
    for key, weights in tables.items():
        n, sep, x = key.partition(":")
        if not sep or not (n.isascii() and n.isdigit()):
            raise DomainError("distribution key %r is not <degree>:<simplex>"
                              % key)
        if (int(n), x) in table:
            raise DomainError("two distributions at %d:%s" % (int(n), x))
        table[(int(n), x)] = Dist({o: rat(v) for o, v in weights.items()})
    return SimplicialDistribution(table)


def load_morphism(path):
    from .complexes import SimplicialRelation, simplex_from_key, strings
    from .events import EventMorphism, EventScenario
    obj = _load(path)
    if obj.get("kind") != "morphism":
        raise DomainError("file %s does not hold a morphism" % path)
    source = EventScenario.from_json(obj["source"])
    target = EventScenario.from_json(obj["target"])
    relation, components = obj["relation"], obj["components"]
    if not isinstance(relation, dict) or \
            not all(map(strings, relation.values())):
        raise DomainError("relation must map vertices to lists of vertices")
    if not isinstance(components, dict) or \
            not all(isinstance(v, dict) and strings(list(v.values()))
                    for v in components.values()):
        raise DomainError("components must map simplex keys to objects of "
                          "outcomes")
    rel = SimplicialRelation(target.base, source.base,
                             {x: frozenset(v) for x, v in relation.items()})
    comps = {simplex_from_key(k): dict(v) for k, v in components.items()}
    return EventMorphism(source, target, rel, comps)


def sset_map_json(fmap):
    return {"kind": "sset-map",
            "d": fmap.source.d,
            "source": fmap.source.to_json(),
            "target": fmap.target.to_json(),
            "components": {str(n): {x: fmap.comp[n][x]
                                    for x in sorted(fmap.comp[n])}
                           for n in range(fmap.source.d + 1)}}


def cmd_validate(args):
    obj = _load(args.input)
    kind = obj.get("kind")
    if (kind == "model") != (args.scenario is not None):
        raise DomainError("validate takes --scenario exactly when the "
                          "input is a model")
    if kind == "bundle":
        from .bundles import BundleScenario, validate_bundle
        report = validate_bundle(BundleScenario.from_json(obj))
    elif kind in ("event", "standard"):
        from .events import validate_event_scenario
        report = validate_event_scenario(load_scenario(args.input))
    elif kind == "model":
        from .solve import validate_empirical
        scn = load_scenario(args.scenario)
        model = load_model(args.input, scn)
        report = validate_empirical(scn, model.dists)
        report = {"ok": report["ok"], "failures": report["failures"]}
    elif "maximal" in obj:
        from .complexes import SimplicialComplex
        SimplicialComplex.from_json(obj)
        report = {"ok": True, "failures": []}
    else:
        raise DomainError("unrecognized input kind %r" % kind)
    _emit(report, args.output)
    return 0 if report["ok"] else 1


def cmd_convert(args):
    if args.witness and args.to == "event":
        raise DomainError("convert reads --witness only with --to bundle")
    from .complexes import skey
    from .events import element_simplex, elements, validate_event_scenario
    scn = load_scenario(args.input)
    report = validate_event_scenario(scn)
    if not report["ok"]:
        _emit(report, args.output)
        return 1
    if args.to == "event":
        out = scn.to_json()
    else:
        out = elements(scn).to_json()
        if args.witness:
            out = {"converted": out, "witness": {"outcome-names": {
                skey(sigma): {s: skey(element_simplex(scn, sigma, s))
                              for s in scn.sets[sigma]}
                for sigma in scn.base.simplices()}}}
    _emit(out, args.output)
    return 0


def cmd_tensor(args):
    from .events import tensor_event
    s1 = load_scenario(args.inputs[0])
    s2 = load_scenario(args.inputs[1])
    _emit(tensor_event(s1, s2).to_json(), args.output)
    return 0


def cmd_sections(args):
    from .events import section_join
    keys, _, _ = section_join(load_scenario(args.input), cap=args.cap)
    _emit({"count": len(keys), "sections": keys}, args.output)
    return 0


def cmd_nerve_complex(args):
    from .complexes import SimplicialComplex, nerve_complex
    cpx = SimplicialComplex.from_json(_load(args.input))
    _emit(nerve_complex(cpx).to_json(), args.output)
    return 0


def cmd_nerve(args):
    from .bundles import BundleScenario, validate_bundle
    from .sset import nerve_bundle
    bnd = BundleScenario.from_json(_load(args.input))
    report = validate_bundle(bnd)
    if not report["ok"]:
        _emit(report, args.output)
        return 1
    fmap = nerve_bundle(bnd, d=args.truncate)
    _emit(sset_map_json(fmap), args.output)
    return 0


def cmd_map(args):
    if args.truncate is not None and args.kind != "simplicial":
        raise DomainError("map reads --truncate only with --kind simplicial")
    if args.kind == "event":
        from .events import mapping_event_scenario
        f = load_scenario(args.inputs[0])
        g = load_scenario(args.inputs[1])
        mapped, _ = mapping_event_scenario(f, g, cap=args.cap)
        _emit(mapped.to_json(), args.output)
    elif args.kind == "bundle":
        from .bundles import BundleScenario, mapping_bundle_scenario
        bf = BundleScenario.from_json(_load(args.inputs[0]))
        bg = BundleScenario.from_json(_load(args.inputs[1]))
        bnd, _, _ = mapping_bundle_scenario(bf, bg, cap=args.cap)
        _emit(bnd.to_json(), args.output)
    else:
        from .bundles import BundleScenario
        from .sset import mapping_simplicial, nerve_bundle
        bf = BundleScenario.from_json(_load(args.inputs[0]))
        bg = BundleScenario.from_json(_load(args.inputs[1]))
        d = args.truncate
        nf = nerve_bundle(bf, d=d)
        ng = nerve_bundle(bg, d=d)
        ms = mapping_simplicial(nf, ng, cap=args.cap)
        _emit(sset_map_json(ms.proj), args.output)
    return 0


def cmd_push(args):
    from .events import validate_event_morphism
    from .solve import push_empirical
    mor = load_morphism(args.morphism)
    report = validate_event_morphism(mor)
    if not report["ok"]:
        _emit(report, args.output)
        return 1
    model = load_model(args.model, mor.source)
    _emit(push_empirical(mor, model).to_json(), args.output)
    return 0


def cmd_check(args):
    from .solve import check_contextuality
    scn = load_scenario(args.scenario)
    model = load_model(args.model, scn)
    verdict = check_contextuality(scn, model, cap=args.cap)
    _emit(verdict.to_json(), args.output)
    return 2 if verdict.contextual else 0


def cmd_verify_certificate(args):
    from .dist import Dist, rat
    from .solve import noncontextuality_lp, verify_certificate, verify_witness
    scn = load_scenario(args.scenario)
    model = load_model(args.model, scn)
    verdict_obj = _load(args.input)
    contextual = verdict_obj.get("verdict") == "contextual"
    if contextual:
        cert = verdict_obj.get("certificate")
        if not isinstance(cert, dict) or not isinstance(cert.get("y"), list):
            raise DomainError("file %s: certificate must be an object whose "
                              "y is a list of weights" % args.input)
        y = [rat(v) for v in cert["y"]]
    else:
        w = verdict_obj.get("witness")
        if not isinstance(w, dict):
            raise DomainError("file %s: witness must map section keys to "
                              "weights" % args.input)
        q = Dist({k: rat(v) for k, v in w.items()})
    prob, _ = noncontextuality_lp(scn, model, cap=args.cap)
    if contextual:
        ok = verify_certificate(prob, y)
    else:
        ok = set(w) <= set(prob.columns) and \
            verify_witness(prob, [q(k) for k in prob.columns])
    _emit({"verified": bool(ok)}, args.output)
    return 0 if ok else 1


def cmd_decompose(args):
    from .bundles import BundleScenario
    from .dist import rat_str
    from .solve import decompose_noncontextual
    from .sset import coverage_failures, mapping_simplicial, nerve_bundle
    spec = _load(args.scenario)
    if spec.get("kind") != "mapping-bundles":
        raise DomainError("decompose expects a mapping-bundles file")
    bf = BundleScenario.from_json(spec["f"])
    bg = BundleScenario.from_json(spec["g"])
    d = spec.get("d")
    if d is not None and type(d) is not int:
        raise DomainError("d must be an integer")
    sd = load_simplicial_distribution(args.model)
    nf = nerve_bundle(bf, d=d)
    ng = nerve_bundle(bg, d=d)
    # checked before the mapping space is built: it grows steeply with d
    missing = coverage_failures(ng.target, sd)
    if missing:
        raise DomainError("invalid simplicial distribution: %s" % missing[:3])
    ms = mapping_simplicial(nf, ng, cap=args.cap)
    try:
        parts = decompose_noncontextual(ms, sd, cap=args.cap)
    except PreconditionError as err:
        _emit({"verdict": "contextual",
               "certificate": {"y": [rat_str(v) for v in err.certificate]}},
              args.output)
        return 2
    _emit({"verdict": "noncontextual",
           "decomposition": [{"weight": rat_str(w),
                              "morphism": dm.key()}
                             for w, dm in parts]}, args.output)
    return 0


def cmd_laws(args):
    from .laws import run_suite
    report = run_suite(args.suite, args.trials, args.seed)
    _emit(report, args.output)
    return 0 if report["ok"] else 1


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as DomainError, so that they exit 1 with the
    invalid-input JSON line like any other bad input."""

    def error(self, message):
        raise DomainError("%s: %s" % (self.prog, message))


def count(text):
    """An integer that is not negative: the type of --cap and --trials."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative: %d" % value)
    return value


def build_parser():
    parser = _Parser(
        prog="ctx", description="scenario and contextuality toolkit")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, cap=False, truncate=False):
        p.add_argument("-o", "--output", default=None)
        if cap:
            p.add_argument("--cap", type=count, default=10 ** 6)
        if truncate:
            p.add_argument("--truncate", type=int, default=None)

    p = sub.add_parser("validate")
    p.add_argument("input")
    p.add_argument("--scenario", default=None)
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert")
    p.add_argument("input")
    p.add_argument("--to", required=True, choices=["event", "bundle"])
    p.add_argument("--witness", action="store_true")
    common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("tensor")
    p.add_argument("inputs", nargs=2)
    common(p)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("sections")
    p.add_argument("input")
    common(p, cap=True)
    p.set_defaults(func=cmd_sections)

    p = sub.add_parser("nerve-complex")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=cmd_nerve_complex)

    p = sub.add_parser("nerve")
    p.add_argument("input")
    common(p, truncate=True)
    p.set_defaults(func=cmd_nerve)

    p = sub.add_parser("map")
    p.add_argument("--kind", required=True,
                   choices=["event", "bundle", "simplicial"])
    p.add_argument("inputs", nargs=2)
    common(p, cap=True, truncate=True)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("push")
    p.add_argument("--morphism", required=True)
    p.add_argument("--model", required=True)
    common(p)
    p.set_defaults(func=cmd_push)

    p = sub.add_parser("check")
    p.add_argument("--scenario", required=True)
    p.add_argument("--model", required=True)
    common(p, cap=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify-certificate")
    p.add_argument("input")
    p.add_argument("--scenario", required=True)
    p.add_argument("--model", required=True)
    common(p, cap=True)
    p.set_defaults(func=cmd_verify_certificate)

    p = sub.add_parser("decompose")
    p.add_argument("--scenario", required=True)
    p.add_argument("--model", required=True)
    common(p, cap=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("laws")
    p.add_argument("--suite", required=True,
                   choices=["gluing", "monad", "tensor", "equivalence",
                            "mapping"])
    p.add_argument("--trials", type=count, default=100)
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_laws)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ResourceLimitError as err:
        print(json.dumps({"error": "resource-limit", "detail": str(err),
                          "stage": err.stage, "estimate": err.estimate,
                          "cap": err.cap}), file=sys.stderr)
        return 3
    except (DomainError, FileNotFoundError, KeyError,
            json.JSONDecodeError) as err:
        print(json.dumps({"error": "invalid-input",
                          "detail": "%s: %s" % (type(err).__name__, err)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
