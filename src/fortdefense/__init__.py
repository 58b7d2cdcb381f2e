"""Knowledge-driven ad hoc teamwork for a grid fort-defense game.

The package combines a simultaneous-move gridworld simulator, scripted
teammate/opponent policies, fast-and-frugal behavior models, an action-
language reasoner with a bounded planner, an explanation engine, and an
experiment harness.
"""

__version__ = "0.1.0"
