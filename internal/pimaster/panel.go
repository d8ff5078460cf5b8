package pimaster

import (
	"fmt"
	"html/template"
	"net/http"

	"repro/internal/hw"
	"repro/internal/restapi"
)

// panelTmpl renders the Fig. 4 control panel: per-rack node cards with
// CPU/memory bars, the container list, power, leases and DNS summaries.
var panelTmpl = template.Must(template.New("panel").Funcs(template.FuncMap{
	"pct": func(f float64) string { return fmt.Sprintf("%.0f%%", f*100) },
	"mib": func(b int64) string { return fmt.Sprintf("%d MiB", b/hw.MiB) },
	"w":   func(f float64) string { return fmt.Sprintf("%.1f W", f) },
}).Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>PiCloud Control Panel — pimaster</title>
<style>
body { font-family: sans-serif; margin: 1.5em; background: #f4f4f4; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.2em; }
.summary { background: #fff; border: 1px solid #ccc; padding: .8em; margin-bottom: 1em; }
.rack { display: inline-block; vertical-align: top; background: #fff; border: 1px solid #aaa; margin: .4em; padding: .5em; }
.node { border-bottom: 1px solid #eee; padding: .25em 0; font-size: .85em; }
.bar { display: inline-block; width: 90px; height: 9px; background: #ddd; margin: 0 .4em; }
.bar i { display: block; height: 100%; background: #2a7; }
.bar i.hot { background: #d33; }
table { border-collapse: collapse; background: #fff; font-size: .85em; }
td, th { border: 1px solid #ccc; padding: .25em .6em; text-align: left; }
.off { color: #999; }
</style>
</head>
<body>
<h1>Glasgow Raspberry Pi Cloud — pimaster control panel</h1>
<div class="summary">
  <b>{{.NodeCount}}</b> nodes in <b>{{.RackCount}}</b> racks ·
  <b>{{.VMCount}}</b> VMs ·
  power draw <b>{{w .Power.TotalWatts}}</b>
  (single socket {{if .Power.SocketOK}}OK{{else}}EXCEEDED{{end}},
  limit {{w .Power.SocketLimitW}}) ·
  sim time {{.SimTime}}
</div>
<h2>Racks</h2>
{{range .Racks}}<div class="rack">
  <b>rack {{.Index}}</b>
  {{range .Nodes}}<div class="node{{if not .PoweredOn}} off{{end}}">
    {{.Node}}
    cpu<span class="bar"><i{{if gt .CPUUtil 0.85}} class="hot"{{end}} style="width:{{pct .CPUUtil}}"></i></span>{{pct .CPUUtil}}
    mem<span class="bar"><i style="width:{{pct .MemFrac}}"></i></span>{{mib .MemUsed}}
    · {{.Running}}/{{.Containers}} up
  </div>{{end}}
</div>{{end}}
<h2>Virtual machines</h2>
<table>
<tr><th>name</th><th>node</th><th>image</th><th>ip</th><th>fqdn</th><th>label</th></tr>
{{range .VMs}}<tr><td>{{.Name}}</td><td>{{.Node}}</td><td>{{.Image}}</td><td>{{.IP}}</td><td>{{.FQDN}}</td><td>{{.Label}}</td></tr>{{end}}
</table>
<h2>Services</h2>
<div class="summary">
DHCP leases: <b>{{.LeaseCount}}</b> · DNS records: <b>{{.DNSCount}}</b> · images: {{range .Images}}<code>{{.}}</code> {{end}}
</div>
</body>
</html>`))

// panelNode is one node row in the panel.
type panelNode struct {
	restapi.NodeStatus
	MemFrac float64
}

// panelRack groups panel rows.
type panelRack struct {
	Index int
	Nodes []panelNode
}

// panelData feeds the template.
type panelData struct {
	NodeCount  int
	RackCount  int
	VMCount    int
	Power      PowerSummary
	SimTime    string
	Racks      []panelRack
	VMs        []VMRecord
	LeaseCount int
	DNSCount   int
	Images     []string
}

func (m *Master) handlePanel(w http.ResponseWriter, _ *http.Request) {
	rackMap := make(map[int]*panelRack)
	var rackOrder []int
	statuses, now := m.statuses()
	for i, st := range statuses {
		ref := m.nodes[i]
		pr, ok := rackMap[ref.Rack]
		if !ok {
			pr = &panelRack{Index: ref.Rack}
			rackMap[ref.Rack] = pr
			rackOrder = append(rackOrder, ref.Rack)
		}
		memFrac := 0.0
		if st.MemTotal > 0 {
			memFrac = float64(st.MemUsed) / float64(st.MemTotal)
		}
		pr.Nodes = append(pr.Nodes, panelNode{NodeStatus: st, MemFrac: memFrac})
	}
	data := panelData{
		NodeCount:  len(m.nodes),
		RackCount:  len(rackOrder),
		VMCount:    len(m.VMs()),
		Power:      m.Power(),
		SimTime:    now,
		VMs:        m.VMs(),
		LeaseCount: len(m.dhcp.Leases()),
		DNSCount:   m.dns.RecordCount(),
		Images:     m.images.List(),
	}
	for _, idx := range rackOrder {
		data.Racks = append(data.Racks, *rackMap[idx])
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := panelTmpl.Execute(w, data); err != nil {
		// Headers already sent; nothing more to do.
		return
	}
}
