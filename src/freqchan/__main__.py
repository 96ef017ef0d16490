"""``python -m freqchan``: the same entry point as the ``freqchan`` script."""

from .cli import console

if __name__ == "__main__":
    console()
