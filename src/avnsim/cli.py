"""Command-line surface: predict | lhv | simulate | reproduce-paper.

All subcommands are deterministic given the full configuration including
the seed.  JSON output carries every float at 17 significant digits so
documents are byte-reproducible and round-trip exactly.  Exit codes are a
stable contract: 0 success, 1 certificate or comparison failure, 2 usage
or configuration error.

This module holds only what every command runs: the grammar, the config,
the dispatch and the JSON serializer.  A command's module is imported in
its own branch of main, and the csv and text forms live in _formats, so a
cold command compiles and runs only the code it uses.
"""

import math
import sys
from collections import namedtuple

DEFAULT_SEED = 0


# ---------------------------------------------------------------- serializers

def _format_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return format(x, ".17g")


def _quote(s: str) -> str:
    """json.dumps(s).  Printable ASCII other than " and \\ is exactly what json.dumps
    leaves unescaped, so such a string is only quoted, without importing json."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    import json
    return json.dumps(s)


def to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at full double precision."""
    # the common leaves first, by exact type: the numbers ABC checks are slow
    kind = type(obj)
    if kind is float:
        return _format_float(obj)
    if kind is int:
        return str(obj)
    if kind is str:
        return _quote(obj)
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad}  {_quote(str(k))}: {to_json(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        # an int item is written in place: the certificate's maximisers hold 1,728 of them
        items = [f"{pad}  {v}" if type(v) is int else f"{pad}  {to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    import numbers  # only a value of another type, such as a numpy scalar, needs the ABCs
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return _quote(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# -------------------------------------------------------------- configuration

RunConfig = namedtuple("RunConfig", "source noise schedule seed output_format")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    import json  # only a config document needs the parser
    try:
        doc = json.loads(raw)
    except RecursionError:
        raise ValueError("config document nests too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    return doc


def build_run_config(raw: dict, args: dict) -> RunConfig:
    """The config document raw under the parsed flags args.  Each field of raw is
    checked as it is read, whether or not a flag then overrides it."""
    from . import _records

    _records._config_block(raw, "config", RunConfig._fields)
    seed = _records.check_seed(raw.get("seed", DEFAULT_SEED))
    if args["seed"] is not None:
        seed = _records.check_seed(args["seed"])
    output_format = raw.get("output_format", "json")
    formats = _OPTIONS[args["command"]]["--format"]
    if output_format not in formats:
        raise ValueError(f"output_format must be one of {formats}")
    if args["format"] is not None:
        output_format = args["format"]
    return RunConfig(
        source=_records.SourceConfig.from_dict(raw.get("source", {})),
        noise=_records.NoiseModel.from_dict(raw.get("noise", {})),
        schedule=_records.Schedule.from_dict(raw.get("schedule", {})),
        seed=seed,
        output_format=output_format,
    )


# --------------------------------------------------------------------- main

# the grammar: one line per command and its options, each option taking one value
USAGE = """\
avnsim predict          [--config PATH] [--seed N] [--format json|csv|text] [--out PATH]
avnsim simulate         [--config PATH] [--seed N] [--format json|csv|text] [--out PATH]
avnsim lhv              [--format json|text] [--out PATH]
avnsim reproduce-paper  [--seed N] [--format json|text] [--out PATH]
"""
# each command's options, each with the values its USAGE line lists ("[--format" "json|text]": the choices)
_OPTIONS = {w[1]: {o[1:]: v[:-1].split("|") for o, v in zip(w[2::2], w[3::2])} for w in map(str.split, USAGE.splitlines())}


def _help():
    sys.stdout.write(USAGE)
    raise SystemExit(0)


def _usage_error(message: str, command: str | None = None):
    lines = [line for line in USAGE.splitlines() if command in (None, line.split()[1])]
    sys.stderr.write("usage: " + "\n       ".join(lines) + f"\navnsim: error: {message}\n")
    raise SystemExit(2)


def _negative_number(token: str) -> bool:
    """token fully matches -(\\d+|\\d*\\.\\d+)?, argparse's negative number, where \\d is a
    decimal digit of any script (Unicode Nd), the characters for which str.isdecimal holds."""
    whole, dot, fraction = token[1:].partition(".")
    if dot:
        return (not whole or whole.isdecimal()) and fraction.isdecimal()
    return not whole or whole.isdecimal()


def _parse_args(argv: list[str]) -> dict:
    """The command and its options, by argparse's rules: -h prints USAGE and exits 0, a usage error exits 2.

    An option is given as --opt VALUE or --opt=VALUE, or by a unique prefix,
    and its last occurrence wins.  A following token that starts with - is
    a value only when it is - (stdin) or a negative number.
    """
    tokens = iter(argv)
    command = next(tokens, None)
    if command in ("-h", "--help"):
        _help()
    if command not in _OPTIONS:
        _usage_error("missing command" if command is None else f"unknown command {command!r}")
    args = {"command": command, "config": None, "seed": None, "format": None, "out": None}
    for token in tokens:
        name, eq, value = ("--help" if token == "-h" else token).partition("=")
        # a prefix of every option ("-", "--") or of none is not an option
        matches = [option for option in [*_OPTIONS[command], "--help"] if option.startswith(name)]
        if len(matches) != 1:
            _usage_error(f"unrecognized arguments: {token}", command)
        option = matches[0]
        if option == "--help":
            _help()
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") and not _negative_number(value):
                _usage_error(f"argument {option}: expected one argument", command)
        if option == "--seed":
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument --seed: invalid int value: {value!r}", command)
        elif option == "--format" and value not in _OPTIONS[command][option]:
            choices = ", ".join(map(repr, _OPTIONS[command][option]))
            _usage_error(f"argument --format: invalid choice: {value!r} (choose from {choices})", command)
        args[option[2:]] = value
    return args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    command, output_format, config = args["command"], args["format"] or "json", None
    try:
        if command == "lhv":
            from . import lhv

            doc = lhv.certificate()
            code = 0 if doc["ok"] else 1
        elif command == "reproduce-paper":
            from . import _records, reference

            doc = reference._reproduce_document(_records.check_seed(DEFAULT_SEED if args["seed"] is None else args["seed"]))
            code = 0 if doc["all_pass"] else 1
        else:
            # predict's exact report or simulate's seeded counting run, from the
            # Pauli frame (_frame) without numpy; experiment.predict_exact and
            # run_schedule on the dense density matrix are their oracles in the tests
            from . import _frame

            config = build_run_config(load_config(args["config"]), args)
            output_format = config.output_format
            if command == "simulate":
                report = _frame.simulate(config.source, config.noise, config.schedule, config.seed)
            else:
                report = _frame.predict(config.source, config.noise)
            doc, code = report.to_dict(), 0
        if output_format == "json":
            payload = to_json(doc) + "\n"
        else:
            from . import _formats

            payload = _formats.render(command, output_format, doc, config)
        if args["out"] is None:
            sys.stdout.write(payload)
        else:
            with open(args["out"], "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
    except (ValueError, KeyError, OSError) as exc:
        print(f"avnsim: error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
