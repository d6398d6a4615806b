"""Command line: AR quivers as DOT, verification reports as JSON, and
connecting 4-angle listings.

Exit codes: 0 success / all claims pass, 1 a verification claim failed,
2 a refusal: any `AusglueError`, `OSError` or `ValueError` raised under a
command ends in `error: <reason>` on stderr, never in a traceback.
"""

import json
import os
import sys

import click

from .linalg import QQ, GF, default_field
from .quiver import (DynkinSpec, hereditary_presentation, nakayama_linear,
                     parse_quiver_file)
from .pathcat import category_from_presentation
from .knitting import knit
from .glue import (build_sk, auslander_category, cluster_tilting_subcategory,
                   _check_k_and_n, _unique_names)
from .tower import (verify_theorem_dynkin, verify_theorem_higher,
                    four_angles)
from .errors import AusglueError, InvalidDynkinSpec, InvalidParams


def _parse_field(text):
    t = text.strip().lower()
    if t in ("q", "qq", "rational", "rationals"):
        return QQ
    if not t.isdigit():
        raise InvalidParams("field must be a prime or 'QQ', got %r" % text)
    return GF(int(t))


def _resolve_field(flag):
    text = os.environ.get("AUSGLUE_FIELD") or flag
    return default_field() if text is None else _parse_field(text)


def _parse_dynkin(text):
    """'A3', 'A3-alternating', 'D4-in': letter+rank, optional orientation."""
    head, sep, orient = text.strip().partition("-")
    if len(head) < 2 or not head[1:].isdigit():
        raise InvalidDynkinSpec("expected e.g. A3 or D4-in, got %r" % text)
    return DynkinSpec(head[0], int(head[1:]), orient if sep else None)


def _parse_nakayama(text):
    parts = text.replace(" ", "").split(",")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise InvalidParams("expected m,ell (e.g. 4,3), got %r" % text)
    return int(parts[0]), int(parts[1])


def _emit(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _dot(vertices, arrows):
    """vertices: list of (key, shift, label); arrows: list of
    (src_key, dst_key, mult).  Shift level becomes a same-rank column."""
    lines = ["digraph ar {", "  rankdir=LR;", "  node [shape=box];"]
    for key, _, label in vertices:
        lines.append('  "%s" [label="%s"];' % (key, label))
    by_shift = {}
    for key, shift, _ in vertices:
        by_shift.setdefault(shift, []).append(key)
    for shift in sorted(by_shift):
        lines.append("  { rank=same; %s }"
                     % " ".join('"%s";' % k for k in by_shift[shift]))
    for src, dst, mult in arrows:
        for _ in range(mult):
            lines.append('  "%s" -> "%s";' % (src, dst))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dimvec(M):
    return "(" + ",".join(str(d) for d in M.dim_vector()) + ")"


class _Refusing(click.Group):
    """The exit contract in one place: a command refuses by raising, and
    every refusal becomes `error: <reason>` and exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (AusglueError, OSError, ValueError) as e:
            click.echo("error: %s" % e, err=True)
            sys.exit(2)


def _ambient(field, dynkin=None, nakayama=None, auslander=None,
             quiver_file=None):
    """The input category named by exactly one of the input flags, and its
    name in a report."""
    if [dynkin, nakayama, auslander, quiver_file].count(None) != 3:
        raise InvalidParams("give exactly one input flag")
    if nakayama is not None:
        m, ell = _parse_nakayama(nakayama)
        return (category_from_presentation(nakayama_linear(m, ell), field),
                "nakayama(%d,%d)" % (m, ell))
    if quiver_file is not None:
        with open(quiver_file, encoding="utf-8") as fh:
            pres = parse_quiver_file(fh.read())
        return (category_from_presentation(pres, field),
                "quiver-file %s" % os.path.basename(quiver_file))
    base = category_from_presentation(
        hereditary_presentation(_parse_dynkin(dynkin or auslander)), field)
    if dynkin is not None:
        return base, "dynkin(%s)" % dynkin
    return auslander_category(base)[0], "auslander(%s)" % auslander


@click.group(cls=_Refusing)
def main():
    """Glued module categories of Dynkin-type algebras: construction and
    verification."""


@main.command("ar")
@click.option("--dynkin", "dynkin_text", default=None,
              help="Dynkin spec, e.g. A3 or A3-alternating.")
@click.option("--quiver-file", type=click.Path(), default=None,
              help="Bound quiver spec file.")
@click.option("--k", "k", type=int, default=0, show_default=True,
              help="Number of shifted copies when --glued is set.")
@click.option("--glued", is_flag=True,
              help="Emit the quiver of the glued category instead of the "
                   "ambient AR quiver.")
@click.option("--field", "field_text", default=None,
              help="Prime p or QQ (AUSGLUE_FIELD overrides).")
@click.option("--dot", "dot_path", type=click.Path(), default=None,
              help="Write DOT here instead of stdout.")
@click.option("--json", "json_path", type=click.Path(), default=None,
              help="Also write a JSON description here.")
def cmd_ar(dynkin_text, quiver_file, k, glued, field_text, dot_path,
           json_path):
    """Knit an AR quiver and emit it as DOT (and optionally JSON)."""
    ambient, _ = _ambient(_resolve_field(field_text), dynkin=dynkin_text,
                          quiver_file=quiver_file)
    if glued:
        g = build_sk(ambient, k)
        dims = {nm: _dimvec(M) for nm, M in zip(g.names, g.modules)}
        vertices = [("%s[%d]" % (nm, j), j, "%s[%d] %s" % (nm, j, dims[nm]))
                    for nm, j in g.cat.objects]
        arrows = sorted(("%s[%d]" % s, "%s[%d]" % d, mult)
                        for (s, d), mult in g.cat.gabriel_arrows().items())
    else:
        ar = knit(ambient)
        names = _unique_names(ar.labels())
        vertices = [(names[i], 0,
                     "%s %s" % (names[i], _dimvec(ar.module(i))))
                    for i in range(ar.count)]
        arrows = sorted((names[s], names[d], mult)
                        for s, d, mult in ar.arrows)
    _emit(_dot(vertices, arrows), dot_path)
    if json_path:
        doc = {"vertices": [{"name": key, "shift": shift, "label": lab}
                            for key, shift, lab in vertices],
               "arrows": [{"src": s, "dst": d, "mult": mult}
                          for s, d, mult in arrows]}
        _emit(json.dumps(doc, indent=2) + "\n", json_path)


@main.command("verify")
@click.option("--dynkin", "dynkin_text", default=None,
              help="Dynkin spec, e.g. A3 or A3-alternating.")
@click.option("--nakayama", "nakayama_text", default=None,
              help="Linear Nakayama parameters m,ell (e.g. 4,3).")
@click.option("--auslander-of", "auslander_text", default=None,
              help="Verify over the Auslander algebra of this Dynkin spec.")
@click.option("--quiver-file", type=click.Path(), default=None,
              help="Bound quiver spec file.")
@click.option("--k", "k", type=int, required=True,
              help="Number of shifted copies.")
@click.option("--n", "n", type=int, default=None,
              help="Glue degree (cluster-tilting degree); default 1 for "
                   "Dynkin input, required otherwise.")
@click.option("--field", "field_text", default=None,
              help="Prime p or QQ (AUSGLUE_FIELD overrides).")
@click.option("--out", "-o", "out_path", type=click.Path(), default=None,
              help="Write the JSON report here instead of stdout.")
def cmd_verify(dynkin_text, nakayama_text, auslander_text, quiver_file,
               k, n, field_text, out_path):
    """Run the verification pipeline and emit a JSON report."""
    field = _resolve_field(field_text)
    if n is None and dynkin_text is None:
        raise InvalidParams("--n is required for any input but --dynkin")
    _check_k_and_n(k, 1 if n is None else n)
    if dynkin_text is not None and \
            {nakayama_text, auslander_text, quiver_file} == {None}:
        if n not in (None, 1):
            raise InvalidParams("Dynkin input is hereditary: n must be 1")
        rep = verify_theorem_dynkin(_parse_dynkin(dynkin_text), k,
                                    field=field)
    else:
        ambient, desc = _ambient(field, dynkin_text, nakayama_text,
                                 auslander_text, quiver_file)
        rep = verify_theorem_higher(ambient, k, n, input_desc=desc)
    _emit(json.dumps(rep.to_dict(), indent=2) + "\n", out_path)
    sys.exit(0 if rep.passed else 1)


@main.command("angles")
@click.option("--auslander-of", "auslander_text", default=None,
              help="List 4-angles over the Auslander algebra of this "
                   "Dynkin spec.")
@click.option("--nakayama", "nakayama_text", default=None,
              help="List 4-angles over this linear Nakayama algebra m,ell.")
@click.option("--dynkin", "dynkin_text", default=None,
              help="Rejected: hereditary algebras have no 2-cluster-tilting "
                   "structure.")
@click.option("--field", "field_text", default=None,
              help="Prime p or QQ (AUSGLUE_FIELD overrides).")
def cmd_angles(auslander_text, nakayama_text, dynkin_text, field_text):
    """Print the connecting 4-angles of the tau_2-generated
    2-cluster-tilting subcategory, refused as verify --n 2 refuses it."""
    if dynkin_text is not None:
        raise InvalidParams(
            "hereditary input: no 2-cluster-tilting subcategory; "
            "use --auslander-of or --nakayama")
    ambient, _ = _ambient(_resolve_field(field_text), nakayama=nakayama_text,
                          auslander=auslander_text)
    modules, names = cluster_tilting_subcategory(ambient, 2)[:2]
    for x, mid1, mid2, y in four_angles(ambient, modules, names):
        click.echo("%s -> %s -> %s -> %s -> %s[2]"
                   % (x, " (+) ".join(mid1), " (+) ".join(mid2), y, x))


if __name__ == "__main__":
    main()
