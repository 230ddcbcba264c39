// Package specs holds the committed service-definition sources (.svc,
// see internal/sdl). Each spec has exactly one source of truth here: the
// packages that implement a service parse it (floorcontrol.Spec,
// chat.Spec), cmd/sdlc -example prints the floor-control one, the sdlgen
// golden tests compile it, and the generated packages under examples/gen
// are produced from it (the CI freshness gate regenerates and diffs).
package specs

import _ "embed"

// FloorControl is the floor-control service definition
// (floorcontrol.svc): the paper's running example. sdlgen compiles it
// into examples/gen/floorcontrol.
//
//go:embed floorcontrol.svc
var FloorControl string

// OrderedChat is the ordered-chat case study's definition (chat.svc).
//
//go:embed chat.svc
var OrderedChat string

// AllKinds is the kitchen-sink definition (allkinds.svc): every
// parameter kind and constraint form, used as the generator's
// compile-coverage input. sdlgen compiles it into examples/gen/allkinds.
//
//go:embed allkinds.svc
var AllKinds string
