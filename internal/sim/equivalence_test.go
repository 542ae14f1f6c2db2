package sim

import (
	"reflect"
	"testing"

	"flexvc/internal/config"
	"flexvc/internal/core"
	"flexvc/internal/routing"
)

// TestTableBackedRoutingEquivalence is the end-to-end half of the route-table
// equivalence property: for every topology, scale and routing algorithm
// combination, a full simulation with the precomputed tables enabled must
// produce a bit-identical result to the same simulation with the tables
// disabled (cfg.RouteTableBytes < 0 forces every routing query onto the
// on-the-fly path). Because every output port and VC decision feeds back into
// the packet flow, a single diverging (src, dst, hop) decision anywhere in
// the run would diverge the aggregate result.
func TestTableBackedRoutingEquivalence(t *testing.T) {
	type variant struct {
		name string
		cfg  config.Config
	}
	variants := []variant{}

	add := func(name string, cfg config.Config) {
		cfg.WarmupCycles = 300
		cfg.MeasureCycles = 1200
		variants = append(variants, variant{name, cfg})
	}

	// Dragonfly at two scales, all four routing algorithms.
	for _, scale := range []struct {
		name string
		cfg  func() config.Config
	}{
		{"tiny", config.Tiny},
		{"small", config.Small},
	} {
		min := scale.cfg()
		min.Routing = routing.MIN
		add("dragonfly-"+scale.name+"-min", min)

		val := scale.cfg()
		val.Routing = routing.VAL
		val.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(4, 2), Selection: core.JSQ}
		val.Traffic = config.TrafficAdversarial
		add("dragonfly-"+scale.name+"-val", val)

		par := scale.cfg()
		par.Routing = routing.PAR
		par.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(5, 2), Selection: core.JSQ}
		add("dragonfly-"+scale.name+"-par", par)

		pb := scale.cfg()
		pb.Routing = routing.PB
		pb.Reactive = true
		pb.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.TwoClass(4, 2, 2, 1), Selection: core.JSQ}
		add("dragonfly-"+scale.name+"-pb", pb)
	}

	// Flattened butterfly, oblivious routing.
	fb := config.Small()
	fb.Topology = config.TopoFlattenedButterfly
	fb.K, fb.P = 4, 2
	fb.Routing = routing.MIN
	add("fbfly-min", fb)

	fbv := fb
	fbv.Routing = routing.VAL
	fbv.Scheme = core.Scheme{Policy: core.FlexVC, VCs: core.SingleClass(4, 0), Selection: core.JSQ}
	add("fbfly-val", fbv)

	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			tabled := v.cfg
			tabled.RouteTableBytes = 0 // tables on
			plain := v.cfg
			plain.RouteTableBytes = -1 // disabled: on-the-fly

			rt, err := RunOne(tabled)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := RunOne(plain)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rt, rp) {
				t.Fatalf("table-backed and on-the-fly runs diverge:\n tables: %+v\n fly:    %+v", rt, rp)
			}
			if rt.DeliveredPackets == 0 {
				t.Fatal("run moved no traffic; equivalence check is vacuous")
			}
		})
	}
}
