#!/bin/sh
# Stand-in analyzer for the subprocess workload. It applies the alarm rule
# of samples/convergence.profile to the arguments the default catalog
# renders, and reports each alarm as an Eva-style "[eva:alarm]" line whose
# file field is the profile's alarm id.
#
# Usage: sh eva_stub.sh <rendered "-eva-<name> <value>" pairs...> <program>

slevel=0
unroll=0
domains=
relational=
while [ "$#" -gt 1 ]; do
    case "$1" in
        -eva-slevel) slevel=$2 ;;
        -eva-auto-loop-unroll) unroll=$2 ;;
        -eva-domains) domains=",$2," ;;
    esac
    shift 2
done

echo "[kernel] Parsing $1 (with preprocessing)"
echo "[eva] Analyzing a complete application starting at main"
[ "$slevel" -ge 104 ] || echo "[eva:alarm] needs-slevel:12: Warning: out of bounds read. assert valid_read(p + i);"
[ "$unroll" -ge 16 ] || echo "[eva:alarm] needs-unroll:27: Warning: signed overflow. assert n + 1 <= 2147483647;"
case "$domains" in
    *,octagon,*) case "$domains" in *,equality,*) relational=yes ;; esac ;;
esac
[ -n "$relational" ] || echo "[eva:alarm] needs-domains:33: Warning: division by zero. assert d != 0;"
echo "[eva:alarm] incompressible-1:41: Warning: accessing uninitialized left-value. assert initialized(&x);"
echo "[eva:alarm] incompressible-2:48: Warning: pointer downcast. assert (unsigned int)q <= 4294967295;"
echo "[eva] done for function main"
