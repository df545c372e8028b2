"""Test helper: the radio graph a world's links form as they stand now."""

from meshsim import World


def component(world: World, start: int) -> set[int]:
    """Nodes connected to ``start`` over radio links as they stand now."""
    seen = {start}
    frontier = [start]
    while frontier:
        for v in [n.id for n in world.links(frontier.pop())]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen
