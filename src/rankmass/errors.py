"""Exception types shared across the package."""


def _id_list(ids) -> str:
    """Node ids for a one-line message: the first ten, and past ten the count."""
    ids = [int(i) for i in ids]
    more = ", … (%d in all)" % len(ids) if len(ids) > 10 else ""
    return "[%s%s]" % (", ".join(map(str, ids[:10])), more)


class GraphParseError(ValueError):
    """Malformed edge-list input. Carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class GraphRangeError(GraphParseError):
    """Node id outside the declared node count."""


class ConvergenceError(RuntimeError):
    """An iterative solve ran out of iterations. Carries the last residual."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


class StructureError(ValueError):
    """Input lacks the structure an operation requires (closure, irreducibility, ...)."""


class AssumptionViolationError(StructureError):
    """The no-links-from-OUT-to-dangling assumption fails. Carries the dangling nodes hit."""

    def __init__(self, nodes):
        self.nodes = tuple(sorted(nodes))
        super().__init__(
            "dangling node(s) %s receive links from the OUT block; "
            "re-run with force_dn_merge (--force-dn-merge) to proceed with an approximate "
            "block split"
            % (_id_list(self.nodes),)
        )
