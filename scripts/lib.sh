# Helpers shared by the ptlserve smoke and soak scripts. Source it once
# $bin (the temporary build directory) is set:
#
#	. "$(dirname "$0")/lib.sh"
#
# Sourcing it installs the scripts' exit handling: on any exit, an
# interrupt included, every process group spawn started is killed and
# $bin removed.

groups=""
trap 'for g in $groups; do kill -9 "-$g" 2>/dev/null || true; done; rm -rf "$bin"' EXIT
trap 'exit 130' INT TERM

spawn() { # spawn <cmd> [<arg>...] : run in the background in a process group of its own; pid in $!
	# A daemon's workers inherit its group, so killing the group at exit
	# also stops the workers of a daemon the script SIGKILLed mid-run.
	setsid "$@" &
	groups="$groups $!"
}

build() { # build <cmd>... : ./cmd/<cmd> -> $bin/<cmd>
	echo "== building $(echo "$*" | tr ' ' /)"
	for c in "$@"; do
		go build -o "$bin/$c" "./cmd/$c"
	done
}

wait_http() { # wait_http <url> [<message when it never answers>]
	i=0
	until curl -sf "$1" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "${2:-no answer from $1 (logs in ${data:-$bin})}"
			exit 1
		fi
		sleep 0.1
	done
}

json_id() { # stdin: a submit response or job status -> its job id
	sed -n 's/.*"id":"\([0-9]*\)".*/\1/p' | head -1
}

json_int() { # json_int <field> : stdin JSON -> the field's integer value
	sed -n "s/.*\"$1\": \{0,1\}\([0-9][0-9]*\).*/\1/p" | head -1
}

wait_job() { # wait_job <base url> <id> : poll until done; the last status is in $st
	i=0
	while :; do
		st=$(curl -sf "$1/jobs/$2")
		case "$st" in
		*'"state":"done"'*) return 0 ;;
		*'"state":"failed"'*)
			echo "job failed: $st"
			exit 1
			;;
		esac
		i=$((i + 1))
		if [ "$i" -gt 600 ]; then
			echo "job did not finish: $st"
			exit 1
		fi
		sleep 0.5
	done
}
