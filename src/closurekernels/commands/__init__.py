"""One module per subcommand: `params`, `kernel`, `solve`, `verify` and
`generate`. Each defines `arguments(p)`, which adds the command's arguments
to its subparser and sets `fn`, the function that runs it. `cli` imports
only the module of the command the command line names, so a call compiles
no other command's code.
"""
