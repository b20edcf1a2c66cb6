module equinox/bench

go 1.22

require equinox v0.0.0

replace equinox => ../
