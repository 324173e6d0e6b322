module routeflow/bench

go 1.24

require routeflow v0.0.0

replace routeflow => ../
