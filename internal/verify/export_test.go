package verify

// RefCheck exposes the reference checker to the external differential
// tests, which import packages that themselves import verify.
var RefCheck = refCheck
