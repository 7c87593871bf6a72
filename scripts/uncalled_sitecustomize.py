"""First-call logger: ``scripts/uncalled.py`` installs this file as
``sitecustomize.py`` in a scratch directory on ``PYTHONPATH``, so every
Python process the profiled command starts (pytest, its subprocesses,
forked and spawned pool workers) imports it at start-up.

Each process appends ``path:co_firstlineno`` of every ``repro`` function
the first time it enters it to ``calls/<pid>.log`` beside this file.  A
forked child inherits the parent's seen set, which only skips lines the
parent already wrote.
"""

import os
import sys
import threading

_LOG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calls")
_PACKAGE = os.sep + "repro" + os.sep
_seen = set()


def _first_call(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code in _seen:
        return
    _seen.add(code)
    if _PACKAGE in code.co_filename:
        path = os.path.join(_LOG_DIR, "%d.log" % os.getpid())
        with open(path, "a") as log:
            log.write("%s:%d\n" % (os.path.realpath(code.co_filename),
                                   code.co_firstlineno))


sys.setprofile(_first_call)
threading.setprofile(_first_call)
