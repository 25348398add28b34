"""The spelling of a relator-tuple presentation as `group` prints it, kept
as the oracle for the relator lines that `group` edits one out of the
next: each relator written out from its own tuple, letter by letter."""

from __future__ import annotations

from halfgrids.linkgroup import GroupPresentation


def oracle_format_presentation(p: GroupPresentation) -> str:
    """`group`'s plain text form, without its abelianization line."""
    lines = [f"gens={p.generator_count}"]
    lines.extend("rel: " + word for word in spelled(p, "x", " "))
    return "\n".join(lines)


def oracle_format_presentation_gap(p: GroupPresentation) -> str:
    """`group --gap`'s finitely-presented-group text form."""
    rels = [word or "One(F)" for word in spelled(p, "F.", "*")]
    return (
        f"F := FreeGroup({p.generator_count});;\n"
        f"G := F / [ {', '.join(rels)} ];\n"
    )


def spelled(p: GroupPresentation, prefix: str, sep: str) -> list[str]:
    """Each relator as the names of its letters joined by sep: prefix + x
    for the generator x, with ^-1 after it for its inverse."""
    return [
        sep.join(f"{prefix}{x}" if x > 0 else f"{prefix}{-x}^-1" for x in word)
        for word in p.relators
    ]
