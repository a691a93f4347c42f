"""Command-line front-end.

Every subcommand prints a single JSON document on stdout.  Exit status 0
means the query was computed (the answer itself may be true or false), 2
means bad input, and 3 means a configured resource cap was hit.  JSON keys
are sorted so identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .automata import Alphabet, compile_pattern, dfa_to_json, make_alphabet
from .config import DEFAULT, Config, load_config
from .covering import is_coverable, is_separable
from .errors import InputError, ResourceLimitError
from .ltl import compare_sampled, eval_at, parse_formula
from .membership import idempotent_orbits, sf_membership
from .monoid import (
    Morphism,
    RecognizedLanguage,
    load_morphism,
    morphism_to_json,
    syntactic_morphism,
)
from .oracles import (
    GROUP_CLASSES,
    FinitePrevariety,
    group_kernel,
    st_class,
)
from .sd import min_sync_delay, parse_sd_expression, validate_sd_expression


def _alphabet_of(args) -> Alphabet:
    if not getattr(args, "alphabet", None):
        raise InputError("--alphabet is required for this command")
    return make_alphabet(args.alphabet)


def _config_of(args) -> Config:
    config = load_config(args.config) if getattr(args, "config", None) else DEFAULT
    if getattr(args, "trace", False):
        config = dataclasses.replace(config, trace=True)
    return config


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc


def _plain_morphism(loaded) -> Morphism:
    if isinstance(loaded, RecognizedLanguage):
        return loaded.morphism
    return loaded


def _resolve_class(selector: str, args):
    if selector in GROUP_CLASSES:
        return GROUP_CLASSES[selector]
    if selector == "st":
        return st_class(_alphabet_of(args))
    if selector.startswith("finite:"):
        eta = _plain_morphism(load_morphism(selector[len("finite:"):]))
        return FinitePrevariety(eta)
    raise InputError(
        f"unknown class selector {selector!r}; use st, mod, amt, gr or finite:<file>"
    )


def _language_morphism(args, config: Config):
    """The morphism a kernel/orbit query runs on, from --morphism or --lang."""
    if getattr(args, "morphism", None):
        return _plain_morphism(load_morphism(args.morphism))
    if getattr(args, "lang", None):
        alphabet = _alphabet_of(args)
        dfa = compile_pattern(args.lang, alphabet)
        return syntactic_morphism(dfa, cap=config.monoid_cap).morphism
    raise InputError("give either --morphism <file> or --lang <regex>")


def _cmd_regex(args, config: Config) -> dict:
    alphabet = _alphabet_of(args)
    return dfa_to_json(compile_pattern(args.pattern, alphabet))


def _cmd_monoid(args, config: Config) -> dict:
    alphabet = _alphabet_of(args)
    dfa = compile_pattern(args.lang, alphabet)
    return morphism_to_json(syntactic_morphism(dfa, cap=config.monoid_cap))


def _cmd_kernel(args, config: Config) -> dict:
    selector = args.klass
    if selector not in GROUP_CLASSES:
        raise InputError("kernels are defined for the group classes mod, amt, gr")
    alpha = _language_morphism(args, config)
    kernel = group_kernel(GROUP_CLASSES[selector], alpha, config=config)
    return {"kernel": sorted(kernel)}


def _cmd_orbits(args, config: Config) -> dict:
    cls = _resolve_class(args.klass, args)
    if not isinstance(cls, FinitePrevariety):
        raise InputError("orbits are defined for finite classes; use st or finite:<file>")
    return {"orbits": idempotent_orbits(cls, _language_morphism(args, config))}


def _cmd_membership(args, config: Config) -> dict:
    cls = _resolve_class(args.klass, args)
    alphabet = _alphabet_of(args)
    dfa = compile_pattern(args.lang, alphabet)
    return sf_membership(cls, dfa, config=config).to_json()


def _cmd_separate(args, config: Config) -> dict:
    cls = _resolve_class(args.klass, args)
    alphabet = _alphabet_of(args)
    left = compile_pattern(args.left, alphabet)
    right = compile_pattern(args.right, alphabet)
    return is_separable(cls, left, right, config=config).to_json()


def _cmd_cover(args, config: Config) -> dict:
    cls = _resolve_class(args.klass, args)
    alphabet = _alphabet_of(args)
    covered = compile_pattern(args.covered, alphabet)
    avoided = [compile_pattern(p, alphabet) for p in args.avoided]
    return is_coverable(cls, covered, avoided, config=config).to_json()


def _cmd_sd_validate(args, config: Config) -> dict:
    alphabet = _alphabet_of(args)
    expr = parse_sd_expression(_read_text(args.file), alphabet)
    dfa, violations = validate_sd_expression(expr, alphabet, dmax=config.delay_dmax)
    doc = {"valid": not violations, "violations": [v.to_json() for v in violations]}
    if dfa is not None:
        doc["dfa"] = dfa_to_json(dfa)
    return doc


def _cmd_sd_delay(args, config: Config) -> dict:
    alphabet = _alphabet_of(args)
    dfa = compile_pattern(args.pattern, alphabet)
    dmax = args.dmax if args.dmax is not None else config.delay_dmax
    return {"delay": min_sync_delay(dfa, dmax=dmax)}


def _cmd_ltl_eval(args, config: Config) -> dict:
    alphabet = _alphabet_of(args)
    formula = parse_formula(_read_text(args.formula), alphabet)
    word = args.word
    for sym in word:
        if sym not in alphabet:
            raise InputError(f"word letter {sym!r} is not in the alphabet")
    return {"answer": eval_at(formula, word, args.position)}


def _cmd_ltl_compare(args, config: Config) -> dict:
    alphabet = _alphabet_of(args)
    formula = parse_formula(_read_text(args.formula), alphabet)
    dfa = compile_pattern(args.lang, alphabet)
    mismatches = compare_sampled(formula, dfa, alphabet, max_length=args.maxlen)
    return {"mismatches": mismatches}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alphabet", help="alphabet letters, e.g. --alphabet=ab")
    parser.add_argument("--config", help="key=value file overriding resource caps")
    parser.add_argument("--trace", action="store_true", help="include saturation trace")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfc",
        description="decide membership, separation and covering for star-free closures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("regex", help="compile a regex to a minimal DFA")
    p.add_argument("pattern")
    _add_common(p)
    p.set_defaults(handler=_cmd_regex)

    p = sub.add_parser("monoid", help="syntactic morphism of a language")
    p.add_argument("--lang", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_monoid)

    p = sub.add_parser("kernel", help="group-class kernel of a morphism")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--morphism", help="morphism JSON file")
    p.add_argument("--lang", help="regex whose syntactic morphism is used")
    _add_common(p)
    p.set_defaults(handler=_cmd_kernel)

    p = sub.add_parser("orbits", help="orbits of each idempotent for a finite class")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--morphism", help="morphism JSON file")
    p.add_argument("--lang", help="regex whose syntactic morphism is used")
    _add_common(p)
    p.set_defaults(handler=_cmd_orbits)

    p = sub.add_parser("membership", help="does the language lie in the star-free closure")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("--lang", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_membership)

    p = sub.add_parser("separate", help="separability of two languages")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p)
    p.set_defaults(handler=_cmd_separate)

    p = sub.add_parser("cover", help="coverability of a language against avoided ones")
    p.add_argument("--class", dest="klass", required=True)
    p.add_argument("covered")
    p.add_argument("avoided", nargs="+")
    _add_common(p)
    p.set_defaults(handler=_cmd_cover)

    p = sub.add_parser("sd", help="prefix codes and synchronization delay")
    sd_sub = p.add_subparsers(dest="sd_command", required=True)

    q = sd_sub.add_parser("validate", help="validate an expression file")
    q.add_argument("file")
    _add_common(q)
    q.set_defaults(handler=_cmd_sd_validate)

    q = sd_sub.add_parser("delay", help="least synchronization delay of a prefix code")
    q.add_argument("pattern")
    q.add_argument("--dmax", type=int, default=None)
    _add_common(q)
    q.set_defaults(handler=_cmd_sd_delay)

    p = sub.add_parser("ltl", help="temporal formula evaluation")
    ltl_sub = p.add_subparsers(dest="ltl_command", required=True)

    q = ltl_sub.add_parser("eval", help="evaluate a formula on a word")
    q.add_argument("--formula", required=True, help="formula file")
    q.add_argument("--word", required=True)
    q.add_argument("--position", type=int, default=0)
    _add_common(q)
    q.set_defaults(handler=_cmd_ltl_eval)

    q = ltl_sub.add_parser("compare", help="compare a formula against a regex")
    q.add_argument("--formula", required=True, help="formula file")
    q.add_argument("--lang", required=True)
    q.add_argument("--maxlen", type=int, default=8)
    _add_common(q)
    q.set_defaults(handler=_cmd_ltl_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = args.handler(args, _config_of(args))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
