package main

// Reference digests for pins.json.

import (
	"fmt"
	"net/netip"

	"beholder"
)

// pinDigests computes the reference digests of cfg.workload at
// cfg.seed. The daemon's come from bare facade campaigns, one per
// campaign key, on a freshly reset universe — the supervisor promises
// results byte-identical to those, so the pins check that promise too.
func pinDigests(cfg config) (map[string]any, error) {
	sz := cfg.sz
	switch cfg.workload {
	case "hitlist-sharded":
		targets, err := hitlistSetup(sz)
		if err != nil {
			return nil, err
		}
		rep, err := hitlistRep(cfg, targets)
		if err != nil {
			return nil, err
		}
		tout, err := hitlistTraced(cfg, targets, newTracer())
		if err != nil {
			return nil, err
		}
		if tout.digest != rep.digest {
			return nil, fmt.Errorf("traced digest %s differs from untraced %s", tout.digest, rep.digest)
		}
		return map[string]any{cfg.workload: rep.digest}, nil
	case "adaptive-gen":
		seeds := adaptiveSetup(sz)
		rep, err := adaptiveRep(cfg, seeds)
		if err != nil {
			return nil, err
		}
		return map[string]any{cfg.workload: rep.digest}, nil
	case "daemon-ckpt":
		in := newInternet(sz)
		targets, err := daemonTargets(in, sz)
		if err != nil {
			return nil, err
		}
		out := map[string]string{}
		perTenant := (sz.dmMax + len(daemonTenants) - 1) / len(daemonTenants)
		for i := 0; i < perTenant; i++ {
			for ti, tenant := range daemonTenants {
				d, err := bareDigest(in, targets, daemonKey(cfg.seed, ti, i))
				if err != nil {
					return nil, err
				}
				out[daemonTag(tenant, i)] = d
			}
		}
		return map[string]any{cfg.workload: out}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

func bareDigest(in *beholder.Internet, targets []netip.Addr, key uint64) (string, error) {
	in.Reset()
	res, err := in.NewVantage(vantageName).RunYarrp6(targets, beholder.YarrpOptions{Key: key})
	if err != nil {
		return "", err
	}
	d := newDigest()
	d.Write(res.Store().AppendBinary(nil))
	return d.sum(), nil
}
