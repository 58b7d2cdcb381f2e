"""Action-language reasoning: domain parsing, grounding, belief
progression, goal selection, and minimum-length planning by iterative
deepening."""
