package gateway

import (
	"fmt"

	"psigene/internal/httpx"
	"psigene/internal/ids"
)

// score runs one inspection inside a recover() boundary. A panicking
// signature (bad regexp state, out-of-range feature index from a corrupt
// model that slipped past validation) must cost at most its own request:
// the panic is converted to an error and the caller applies the
// fail-open/fail-closed policy.
func (g *Gateway) score(det ids.Detector, req httpx.Request) (v ids.Verdict, err error) {
	defer func() {
		if r := recover(); r != nil {
			v = ids.Verdict{}
			err = fmt.Errorf("gateway: detector %s panicked: %v", det.Name(), r)
		}
	}()
	return det.Inspect(req), nil
}

// probe validates a candidate detector before it is swapped in: every
// probe request must score without panicking. The probe set is small and
// covers the shapes the gateway feeds detectors — an empty request, a
// benign lookup, and a hostile payload with broken escapes.
func probe(det ids.Detector) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("gateway: candidate detector %s panicked on probe: %v", det.Name(), r)
		}
	}()
	for _, req := range probeRequests {
		det.Inspect(req)
	}
	return nil
}

// probeRequests is the validation workload for candidate detectors.
var probeRequests = []httpx.Request{
	{Method: "GET", Path: "/"},
	{Method: "GET", Path: "/product.php", RawQuery: "id=42"},
	{Method: "GET", Path: "/product.php", RawQuery: "id=1%27+UNION+SELECT+username,password+FROM+users--"},
	{Method: "POST", Path: "/login", Body: "user=admin&pass=%27%20or%201%3D1--"},
	{Method: "GET", Path: "/search", RawQuery: "q=%" /* broken escape stays literal */},
}
