"""The bodies of the ``verify`` checks, one module per suite.

Importing ``gothicvol.checks.<suite>`` registers that suite's checks with
``gothicvol.verify`` in their order; ``verify.run_suite`` imports only the
modules of the suites it runs, so a request compiles and loads the checks it
runs and nothing else.  Each module imports the library modules its checks
call.
"""
