"""Smith forms are taken only where their invariant factors or transforms are the answer."""

import ast
import pathlib

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "horofan").glob("*.py"))

ALLOWED = {
    # the diagonal: cokernels, so class, Picard and PLF/LF groups
    "intlin.invariant_factors",
    # the left transform gives each divisor's class
    "divisors.class_group",
    # the transforms list the torsion of Z^n / B*Z^d
    "polyhedra._parallelepiped_points",
}


def smith_sites(path: pathlib.Path) -> list[str]:
    """`module.function` for each reference to `smith_normal_form` in a module, named by the functions around it.

    A reference is a bare name or an attribute, so a call, an alias and a
    function passed as a value all count; imports and the definition do not.
    """
    module = path.stem
    found = []

    def visit(node: ast.AST, owner: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, owner + [child.name])
                continue
            name = child.id if isinstance(child, ast.Name) else child.attr if isinstance(child, ast.Attribute) else None
            if name == "smith_normal_form":
                found.append(".".join([module] + owner))
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), [])
    return found


def test_smith_normal_form_only_where_its_diagonal_or_transforms_are_the_answer():
    sites = [site for path in SOURCES for site in smith_sites(path)]
    assert SOURCES and sites
    assert sorted(set(sites) - ALLOWED) == []
