"""`python -m sun_phase`: the `sun-phase` command line."""
from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
