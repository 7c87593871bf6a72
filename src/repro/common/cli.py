"""Process entry point shared by every ``python -m repro...`` command."""

import os
import sys


def run_main(main):
    """``sys.exit(main())``, leaving quietly when stdout's reader has gone.

    Piping a command into ``head`` closes the pipe after the lines it
    wants; the next write or flush of stdout then raises
    :class:`BrokenPipeError`.  That ends the command with exit status 1
    and no traceback, and stdout is pointed at :data:`os.devnull` so the
    interpreter's own flush at exit does not raise again.
    """
    try:
        try:
            code = main()
        except SystemExit as exit:
            # argparse's --help and usage errors exit from inside main
            code = exit.code
        sys.stdout.flush()
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            # not backed by a file descriptor: replace the object instead
            sys.stdout = open(os.devnull, "w")
        else:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        code = 1
    sys.exit(code)
