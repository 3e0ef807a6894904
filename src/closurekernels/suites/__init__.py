"""One module per verify suite, named after it (dashes as underscores).
`verify.SUITES` imports a suite's module on its first call; see `verify`
for the contract every suite follows."""
