"""k-server on the line: the exact offline optimum (related-work substrate)."""

from .offline import offline_kserver_line

__all__ = ["offline_kserver_line"]
