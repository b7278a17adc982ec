"""Run the command-line driver as `python -m stagedsl`."""

from .cli import main

if __name__ == "__main__":
    main()
