"""Exception types shared across the package."""


class BlockcliqueError(Exception):
    """Base class for all protocol-level errors."""


class MissingParent(BlockcliqueError):
    """A referenced parent block is not known yet; the block may be buffered."""

    def __init__(self, block_id: bytes, missing: list[bytes]):
        self.block_id = block_id
        self.missing = missing
        super().__init__(f"block {block_id.hex()[:16]} is missing {len(missing)} parent(s)")


class StructuralViolation(BlockcliqueError):
    """The block permanently violates the DAG structure rules and must be discarded."""

    def __init__(self, block_id: bytes, violations: list[str]):
        self.block_id = block_id
        self.violations = violations
        super().__init__(f"block {block_id.hex()[:16]}: " + "; ".join(violations))


class InsufficientBalance(BlockcliqueError):
    """Applying a block would drive a sender balance negative."""


class UnknownBlock(BlockcliqueError):
    """A block id was queried that the store has never seen."""


class UnprocessedParent(BlockcliqueError):
    """A block was fed to the consensus graph before one of its parents."""


class CliqueExplosion(BlockcliqueError):
    """The number of maximal cliques exceeded the configured cap."""


class SingularSystem(BlockcliqueError):
    """The absorbing-chain linear system is degenerate (no transition mass)."""


class DomainError(BlockcliqueError, ValueError):
    """Inputs are outside the validity domain of a closed-form expression."""


class TopologyError(BlockcliqueError):
    """A connected random topology could not be generated within the retry budget."""
