# Smoke check for the vortexlens console script, sourced by the CI steps.
#
#   smoke [--one-error] CODES ARGS...
#
# runs `vortexlens ARGS...` with stdout discarded and ends the shell with
# exit 1 unless the command exits with one of CODES (a space-separated list
# such as "0 2 3 5") and its stderr holds no Traceback or RuntimeWarning.
# With --one-error, stderr must also hold exactly one "error: " line.

smoke_err="${RUNNER_TEMP:-${TMPDIR:-/tmp}}/smoke_err.txt"

smoke() {
  one_error=0
  if [ "$1" = --one-error ]; then one_error=1; shift; fi
  codes=$1
  shift
  c=0
  vortexlens "$@" > /dev/null 2> "$smoke_err" || c=$?
  case " $codes " in
    *" $c "*) ;;
    *) cat "$smoke_err"; echo "vortexlens $* exited $c"; exit 1 ;;
  esac
  if grep -qE 'Traceback|RuntimeWarning' "$smoke_err"; then
    cat "$smoke_err"; echo "vortexlens $* printed a traceback or warning"; exit 1
  fi
  if [ $one_error = 1 ] && [ "$(grep -c '^error: ' "$smoke_err")" != 1 ]; then
    cat "$smoke_err"; echo "vortexlens $* did not print exactly one error line"; exit 1
  fi
}
