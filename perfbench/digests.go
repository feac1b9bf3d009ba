package main

// storedDigests are the sha256 digests of each workload's reference
// results (soc.AppendResult encodings, in input order) at the default
// seed and the default sizes, as recorded on linux/amd64. A run at the
// default seed whose digest differs fails the correctness gate.
var storedDigests = map[string]string{
	"mc-cold":  "25e3201537307a043d92dea91c13c4616333cd35d5cbad50a0e1aadab2b2d6b8",
	"svc-cold": "f4b6e3c5238ad4954eba977ad1315edaea3934fdc88f0c751bb7ae5d63424d56",
}
