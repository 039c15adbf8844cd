package predict // stub: the analyzer under test only needs this package to exist
