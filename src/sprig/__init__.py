"""Staked debates over structured proofs.

Claims post token-backed chains of sub-statements; questions dispute single
steps for a bounty; at the bottom a machine-checkable proof decides. The
package bundles the proof format, a toy proof checker, the escrowed debate
protocol with deterministic settlement, an agent simulator, and the
closed-form equilibrium analysis of the two-level entry game, all behind the
``sprig`` command-line tool.

The package re-exports nothing; import from its modules (``sprig.protocol``,
``sprig.equilibrium``, ...), so that each subcommand loads only its own layer.
"""

__version__ = "0.1.0"
