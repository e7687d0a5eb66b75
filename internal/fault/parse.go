package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// ParsePlan builds a Plan from a compact schedule spec, one fault per
// semicolon-separated entry:
//
//	kind:key=value,key=value,...
//
// Kinds are latency, rate, errors, and fail. Keys are disk (default all),
// from, until (0 = open-ended), factor (latency/rate), prob and retries
// (errors). Example:
//
//	latency:disk=0,from=200,until=400,factor=2;fail:disk=3,from=500,until=520
//
// seed feeds the deterministic read-error draws.
func ParsePlan(spec string, seed uint64) (Plan, error) {
	plan := Plan{Seed: seed}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		kindStr, args, _ := strings.Cut(entry, ":")
		f := Fault{Disk: AllDisks}
		kind, err := kindFromString(strings.TrimSpace(kindStr))
		if err != nil {
			return Plan{}, fmt.Errorf("%w: unknown fault kind %q in %q", ErrPlan, kindStr, entry)
		}
		f.Kind = kind
		if args != "" {
			for _, kv := range strings.Split(args, ",") {
				key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
				if !ok {
					return Plan{}, fmt.Errorf("%w: malformed %q in %q (want key=value)", ErrPlan, kv, entry)
				}
				if err := setField(&f, strings.TrimSpace(key), strings.TrimSpace(val)); err != nil {
					return Plan{}, fmt.Errorf("%w: %q in %q: %v", ErrPlan, key, entry, err)
				}
			}
		}
		plan.Faults = append(plan.Faults, f)
	}
	if err := plan.Validate(0); err != nil {
		return Plan{}, err
	}
	return plan, nil
}

// kindFromString resolves a ParsePlan kind token (with aliases) to a Kind.
func kindFromString(s string) (Kind, error) {
	switch s {
	case "latency", "lat":
		return Latency, nil
	case "rate", "zone-rate":
		return ZoneRate, nil
	case "errors", "err", "read-errors":
		return ReadError, nil
	case "fail", "failure", "down":
		return Failure, nil
	default:
		return 0, fmt.Errorf("%w: unknown fault kind %q", ErrPlan, s)
	}
}

func setField(f *Fault, key, val string) error {
	switch key {
	case "disk":
		if val == "all" {
			f.Disk = AllDisks
			return nil
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return err
		}
		f.Disk = n
	case "from":
		n, err := strconv.Atoi(val)
		if err != nil {
			return err
		}
		f.From = n
	case "until":
		n, err := strconv.Atoi(val)
		if err != nil {
			return err
		}
		f.Until = n
	case "factor":
		if f.Kind != Latency && f.Kind != ZoneRate {
			return errKey(f.Kind)
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return err
		}
		f.Factor = x
	case "prob":
		if f.Kind != ReadError {
			return errKey(f.Kind)
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return err
		}
		f.Prob = x
	case "retries":
		if f.Kind != ReadError {
			return errKey(f.Kind)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return err
		}
		f.Retries = n
	default:
		return fmt.Errorf("unknown key")
	}
	return nil
}

// errKey refuses a key the kind does not read: String would drop it, so
// the plan would not read back as itself.
func errKey(k Kind) error { return fmt.Errorf("not a key of %s", k) }

// String renders the plan back into ParsePlan syntax (lossless for the
// fields ParsePlan reads; Seed is carried separately).
func (p Plan) String() string {
	var b strings.Builder
	for i, f := range p.Faults {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(f.Kind.String())
		b.WriteByte(':')
		if f.Disk == AllDisks {
			b.WriteString("disk=all")
		} else {
			fmt.Fprintf(&b, "disk=%d", f.Disk)
		}
		fmt.Fprintf(&b, ",from=%d,until=%d", f.From, f.Until)
		switch f.Kind {
		case Latency, ZoneRate:
			fmt.Fprintf(&b, ",factor=%g", f.Factor)
		case ReadError:
			fmt.Fprintf(&b, ",prob=%g,retries=%d", f.Prob, f.Retries)
		}
	}
	return b.String()
}
