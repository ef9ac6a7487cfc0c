#include "rtm/api.hh"

namespace akita
{
namespace rtm
{

/**
 * The embedded dashboard. Layout mirrors the paper's Fig. 2:
 *   A resource monitoring (top left), C simulation controls (top),
 *   D component hierarchy + details (left/middle), E profiling or
 *   buffer analyzer (right, switchable), F value time graphs (middle),
 *   G progress bars (bottom).
 */
const char *
dashboardHtml()
{
    return R"HTML(<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>AkitaRTM</title>
<style>
  body { font-family: sans-serif; margin: 0; background: #f4f5f7;
         color: #222; font-size: 13px; }
  header { background: #25303e; color: #fff; padding: 6px 14px;
           display: flex; gap: 18px; align-items: center; }
  header .title { font-weight: bold; font-size: 15px; }
  header .stat b { color: #8fd; }
  button { cursor: pointer; border: 1px solid #889; background: #fff;
           border-radius: 4px; padding: 3px 10px; margin-right: 4px; }
  main { display: grid; grid-template-columns: 260px 1fr 380px;
         gap: 8px; padding: 8px; }
  .panel { background: #fff; border: 1px solid #d8dbe0;
           border-radius: 6px; padding: 8px; overflow: auto;
           max-height: 70vh; }
  .panel h3 { margin: 2px 0 8px; font-size: 13px; color: #456; }
  #tree div.node { cursor: pointer; padding: 1px 0 1px 0; }
  #tree div.node:hover { background: #eef2ff; }
  table { border-collapse: collapse; width: 100%; }
  td, th { border-bottom: 1px solid #eee; padding: 2px 6px;
           text-align: left; font-size: 12px; }
  .full { color: #b22; font-weight: bold; }
  .bars .bar { margin: 4px 0; }
  .bar .track { display: flex; height: 14px; border-radius: 3px;
                overflow: hidden; background: #cfd4da; }
  .bar .done { background: #3a4; } .bar .run { background: #36c; }
  footer { padding: 4px 14px; }
  svg { background: #fbfcfe; border: 1px solid #e4e7ec; }
  .hang { color: #f66; font-weight: bold; }
</style>
</head>
<body>
<header>
  <span class="title">AkitaRTM</span>
  <span class="stat">t=<b id="simtime">-</b></span>
  <span class="stat">events=<b id="events">-</b></span>
  <span class="stat">CPU <b id="cpu">-</b>%</span>
  <span class="stat">RSS <b id="rss">-</b> MB</span>
  <span id="hang"></span>
  <span style="flex:1"></span>
  <button onclick="post('api/v1/pause')">Pause</button>
  <button onclick="post('api/v1/resume')">Kick Start</button>
  <button onclick="toggleRight()">Profiler/Buffers</button>
</header>
<main>
  <div class="panel"><h3>Components</h3><div id="tree"></div></div>
  <div class="panel">
    <h3 id="detailName">Component details</h3>
    <div id="detail">Select a component.</div>
    <h3>Time graphs</h3>
    <div id="charts"></div>
  </div>
  <div class="panel">
    <h3 id="rightTitle">Buffer analyzer</h3>
    <div id="right"></div>
  </div>
</main>
<footer class="bars"><div id="progress"></div></footer>
<script>
let rightMode = 'buffers';
let selected = null;
// Relative fetch targets: the same dashboard works served at / and
// mounted under a fleet-gateway prefix like /sim/sim0/ (the gateway
// 301s the bare prefix to the trailing-slash form, so relative URLs
// always resolve inside the mount).
function get(u){ return fetch(u).then(r=>r.json()); }
function post(u){ return fetch(u, {method:'POST'}); }
function toggleRight(){
  const modes = ['buffers', 'profile', 'topology'];
  rightMode = modes[(modes.indexOf(rightMode) + 1) % modes.length];
  if (rightMode === 'profile') post('api/v1/profile/start');
  document.getElementById('rightTitle').textContent = {
    buffers: 'Buffer analyzer', profile: 'Simulator profile',
    topology: 'Topology'}[rightMode];
}
function renderTree(node, depth, out){
  if (node.label) {
    const pad = '&nbsp;'.repeat(depth*2);
    const name = node.component || '';
    out.push(`<div class="node" onclick="select('${name}')">`+
             pad + node.label + `</div>`);
  }
  (node.children||[]).forEach(c => renderTree(c, depth+1, out));
}
function select(name){
  if (!name) return;
  selected = name;
  refreshDetail();
}
function track(comp, field){
  post(`api/v1/monitor/track?component=${encodeURIComponent(comp)}`+
       `&field=${encodeURIComponent(field)}`);
}
function refreshDetail(){
  if (!selected) return;
  get('api/v1/component?name=' + encodeURIComponent(selected)).then(c => {
    document.getElementById('detailName').textContent = c.name;
    let h = '<table><tr><th>field</th><th>value</th><th></th></tr>';
    c.fields.forEach(f => {
      h += `<tr><td>${f.name}</td><td>${JSON.stringify(f.value)}</td>`+
           `<td><button title="monitor over time" `+
           `onclick="track('${c.name}','${f.name}')">&#9873;</button>`+
           `</td></tr>`;
    });
    c.buffers.forEach(b => {
      const rel = b.name.startsWith(c.name+'.') ?
                  b.name.slice(c.name.length+1) : b.name;
      h += `<tr><td>${rel}</td><td>${b.size}/${b.capacity}</td>`+
           `<td><button onclick="track('${c.name}','${rel}.size')">`+
           `&#9873;</button></td></tr>`;
    });
    h += '</table>';
    if (selected) h += `<button onclick="post('api/v1/tick?component=`+
        encodeURIComponent(selected)+`')">Tick</button>`;
    document.getElementById('detail').innerHTML = h;
  });
  get('api/v1/throughput?component=' + encodeURIComponent(selected))
    .then(ports => {
      let h = '<table><tr><th>port</th><th>sent</th>'+
              '<th>msgs/sim-s</th><th>rejects</th></tr>';
      ports.forEach(p => {
        const rel = p.port.split('.').pop();
        h += `<tr><td>${rel}</td><td>${p.total_sent}</td>`+
             `<td>${(p.send_rate_sim_per_sec/1e6).toFixed(1)}M</td>`+
             `<td>${p.send_rejections}</td></tr>`;
      });
      document.getElementById('detail').innerHTML += h + '</table>';
    }).catch(()=>{});
}
function chartSvg(s){
  const W=420, H=90, P=4;
  if (!s.points.length) return '';
  let vmax = Math.max(...s.points.map(p=>p.v), 1);
  const xs = i => P + i*(W-2*P)/Math.max(s.points.length-1,1);
  const ys = v => H-P - v*(H-2*P)/vmax;
  let d = s.points.map((p,i) =>
      (i?'L':'M') + xs(i).toFixed(1) + ' ' + ys(p.v).toFixed(1)).join(' ');
  const last = s.points[s.points.length-1].v;
  return `<div><b>${s.component}.${s.field}</b> = ${last}`+
    ` <button onclick="post('api/v1/monitor/untrack?id=${s.id}')">x</button>`+
    `<br><svg width="${W}" height="${H}">`+
    `<path d="${d}" fill="none" stroke="#36c" stroke-width="1.5"/>`+
    `<text x="4" y="12" font-size="10" fill="#888">max ${vmax}</text>`+
    `</svg></div>`;
}
function tick(){
  get('api/v1/status').then(s => {
    document.getElementById('simtime').textContent = s.now;
    document.getElementById('events').textContent = s.events;
    document.getElementById('hang').innerHTML = s.hang.hanging ?
      '<span class="hang">&#9888; HANG suspected</span>' :
      (s.paused ? '(paused)' : '');
  }).catch(()=>{});
  get('api/v1/resources').then(r => {
    document.getElementById('cpu').textContent = r.cpu_percent.toFixed(0);
    document.getElementById('rss').textContent =
        (r.rss_bytes/1048576).toFixed(0);
  }).catch(()=>{});
  get('api/v1/progress').then(bars => {
    document.getElementById('progress').innerHTML = bars.map(b => {
      const t = Math.max(b.total,1);
      return `<div class="bar">${b.label} `+
        `(${b.completed}/${b.total})<div class="track">`+
        `<div class="done" style="width:${100*b.completed/t}%"></div>`+
        `<div class="run" style="width:${100*b.in_progress/t}%"></div>`+
        `</div></div>`;
    }).join('');
  }).catch(()=>{});
  if (rightMode === 'buffers') {
    get('api/v1/buffers?sort=percent&top=30').then(rows => {
      let h = '<table><tr><th>Buffer</th><th>Size</th><th>Cap</th></tr>';
      rows.forEach(r => {
        const cls = r.size >= r.cap ? 'full' : '';
        h += `<tr class="${cls}"><td>${r.buffer}</td>`+
             `<td>${r.size}</td><td>${r.cap}</td></tr>`;
      });
      document.getElementById('right').innerHTML = h + '</table>';
    }).catch(()=>{});
  } else if (rightMode === 'topology') {
    get('api/v1/topology').then(t => {
      let h = '';
      t.forEach(conn => {
        h += `<b>${conn.connection}</b><table>` +
             conn.ports.map(p => `<tr><td>${p}</td></tr>`).join('') +
             '</table>';
      });
      document.getElementById('right').innerHTML =
          h || 'no connections registered';
    }).catch(()=>{});
  } else {
    get('api/v1/profile?top=20').then(p => {
      let h = '<table><tr><th>function</th><th>self ms</th>'+
              '<th>total ms</th></tr>';
      p.functions.forEach(f => {
        h += `<tr><td>${f.name}</td>`+
             `<td>${(f.self_ns/1e6).toFixed(1)}</td>`+
             `<td>${(f.total_ns/1e6).toFixed(1)}</td></tr>`;
      });
      document.getElementById('right').innerHTML = h + '</table>';
    }).catch(()=>{});
  }
  get('api/v1/monitor/all').then(all => {
    document.getElementById('charts').innerHTML =
        all.map(chartSvg).join('');
  }).catch(()=>{});
}
get('api/v1/components').then(t => {
  const out = [];
  (t.children||[]).forEach(c => renderTree(c, 0, out));
  document.getElementById('tree').innerHTML = out.join('');
});
setInterval(tick, 1000);
setInterval(refreshDetail, 2000);
tick();
</script>
</body>
</html>
)HTML";
}

} // namespace rtm
} // namespace akita
