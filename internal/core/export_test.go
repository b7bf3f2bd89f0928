package core

// CheckChildMaxima is checkChildMaxima, for the tests that build a data
// set with internal/lbsn, which imports this package.
var CheckChildMaxima = checkChildMaxima
